package core

import (
	"testing"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/sampler"
)

// reproLAMMPSSweep is the LAMMPS sweep cmd/repro runs for its Section III-F
// sampler ablation, byte for byte.
const reproLAMMPSSweep = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: repro
nnodes: [1, 2, 3, 4, 8, 16]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "30"
`

// TestSectionIIIFAblationPinned pins the rows of cmd/repro's
// sectionIIIF_sampler_ablation.txt: scenarios run and skipped, collection
// cost, front recall and hypervolume error of every smart-sampling strategy
// against the full sweep.
func TestSectionIIIFAblationPinned(t *testing.T) {
	cfg, err := config.Parse([]byte(reproLAMMPSSweep))
	if err != nil {
		t.Fatal(err)
	}
	full := New(cfg.Subscription)
	dep, err := full.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullReport, err := full.Collect(dep.Name, cfg, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"full                 ran=18  skipped=0   cost=$55.41    saved=  0.0% recall= 100% hv_err= 0.00%",
		"discard              ran=10  skipped=8   cost=$24.75    saved= 55.3% recall= 100% hv_err= 0.00%",
		"perffactor           ran=15  skipped=3   cost=$41.78    saved= 24.6% recall= 100% hv_err= 0.00%",
		"bottleneck           ran=18  skipped=0   cost=$55.41    saved=  0.0% recall= 100% hv_err= 0.00%",
		"combined             ran=10  skipped=8   cost=$24.75    saved= 55.3% recall= 100% hv_err= 0.00%",
	}
	for i, name := range []string{"full", "discard", "perffactor", "bottleneck", "combined"} {
		adv := New(cfg.Subscription)
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := adv.Collect(dep.Name, cfg, CollectOptions{Sampler: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sampler.Evaluate(name, full.Store, adv.Store, fullReport.CollectionCostUSD,
			report.CollectionCostUSD, report.Completed, report.Skipped).String()
		if got != want[i] {
			t.Errorf("%s row:\n got %q\nwant %q", name, got, want[i])
		}
	}
}
