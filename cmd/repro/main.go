// Command repro regenerates every table and figure of the paper's
// evaluation into a results directory and prints a paper-vs-measured
// comparison for each anchor value. It is the source of the numbers recorded
// in EXPERIMENTS.md.
//
// Usage:
//
//	repro [-o results]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/runner"
	"hpcadvisor/internal/sampler"
)

const lammpsSweep = `subscription: mysubscription
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

const openfoamSweep = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: repro
nnodes: [1, 2, 3, 4, 8, 16]
appname: openfoam
region: southcentralus
ppr: 100
appinputs:
  mesh: "40 16 16"
`

func main() {
	outDir := flag.String("o", "results", "output directory")
	flag.Parse()
	if err := run(*outDir); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

func run(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	fmt.Println("=== HPCAdvisor reproduction: regenerating paper tables and figures ===")
	fmt.Println()

	lammps, lammpsCost, err := sweep(lammpsSweep)
	if err != nil {
		return err
	}
	foam, foamCost, err := sweep(openfoamSweep)
	if err != nil {
		return err
	}

	// Figures 2-5 + 6 (LAMMPS dataset), all from one selection.
	sel := lammps.Select(dataset.Filter{AppName: "lammps"})
	figures := []struct {
		name string
		p    plot.Plot
	}{
		{"figure2_exectime_vs_nodes", plot.ExecTimeVsNodes(sel)},
		{"figure3_exectime_vs_cost", plot.ExecTimeVsCost(sel)},
		{"figure4_speedup", plot.Speedup(sel)},
		{"figure5_efficiency", plot.Efficiency(sel)},
		{"figure6_pareto", plot.ParetoScatter(sel)},
	}
	for _, fig := range figures {
		svgPath := filepath.Join(outDir, fig.name+".svg")
		if err := os.WriteFile(svgPath, plot.RenderSVG(fig.p), 0o644); err != nil { //hpcvet:allow atomicwrite regenerable repro artifact, not state
			return err
		}
		txtPath := filepath.Join(outDir, fig.name+".txt")
		if err := os.WriteFile(txtPath, []byte(seriesText(fig.p)), 0o644); err != nil { //hpcvet:allow atomicwrite regenerable repro artifact, not state
			return err
		}
	}
	fmt.Printf("figures written to %s/figure*.{svg,txt}\n\n", outDir)

	// Figure 2 series (the paper's plot data).
	fmt.Println("--- Figure 2: Execution Time vs Number of Nodes (lammps, atoms=864M) ---")
	fmt.Print(seriesText(figures[0].p))
	fmt.Println()

	// Figure 4/5 shape anchors.
	fmt.Printf("Figure 4 max speedup:    measured %.1f   (paper: ~26 at 16 nodes)\n", maxY(figures[2].p))
	fmt.Printf("Figure 5 peak efficiency: measured %.2f  (paper: super-linear, up to ~1.7)\n\n", maxY(figures[3].p))

	// Listing 4 — LAMMPS advice.
	fmt.Println("--- Listing 4: LAMMPS advice (paper values in parentheses) ---")
	lrows := pareto.Advice(sel, pareto.ByTime)
	fmt.Print(pareto.FormatAdviceTable(lrows))
	paperL4 := []struct {
		t, c  float64
		nodes int
	}{{36, 0.5760, 16}, {69, 0.5520, 8}, {132, 0.5280, 4}, {173, 0.5190, 3}}
	for i, row := range lrows {
		if i < len(paperL4) {
			fmt.Printf("  row %d: measured %3.0f s / $%.4f   (paper %3.0f s / $%.4f)\n",
				i+1, row.ExecTimeSec, row.CostUSD, paperL4[i].t, paperL4[i].c)
		}
	}
	if err := writeText(outDir, "listing4_lammps_advice.txt", pareto.FormatAdviceTable(lrows)); err != nil {
		return err
	}
	fmt.Println()

	// Listing 3 — OpenFOAM advice.
	fmt.Println("--- Listing 3: OpenFOAM advice (paper: 34s/$0.544@16 ... 59s/$0.177@3) ---")
	frows := pareto.Advice(foam.Select(dataset.Filter{AppName: "openfoam"}), pareto.ByTime)
	fmt.Print(pareto.FormatAdviceTable(frows))
	if err := writeText(outDir, "listing3_openfoam_advice.txt", pareto.FormatAdviceTable(frows)); err != nil {
		return err
	}
	fmt.Println()

	// Listing 2 — generated setup/run scripts.
	adv := core.New("mysubscription")
	var scripts strings.Builder
	for _, name := range adv.Apps.Names() {
		app, err := adv.Apps.Get(name)
		if err != nil {
			return err
		}
		scripts.WriteString(runner.GenerateScript(app))
		scripts.WriteString("\n")
	}
	if err := writeText(outDir, "listing2_app_scripts.sh", scripts.String()); err != nil {
		return err
	}
	fmt.Printf("Listing 2 equivalents written to %s/listing2_app_scripts.sh\n\n", outDir)

	// Section III-F — sampler ablation.
	fmt.Println("--- Section III-F: smart-sampling ablation (LAMMPS sweep) ---")
	var ablation strings.Builder
	for _, strat := range []string{"full", "discard", "perffactor", "bottleneck", "combined"} {
		outcome, err := runStrategy(strat, lammpsSweep, lammps, lammpsCost)
		if err != nil {
			return err
		}
		fmt.Println(outcome.String())
		ablation.WriteString(outcome.String() + "\n")
	}
	if err := writeText(outDir, "sectionIIIF_sampler_ablation.txt", ablation.String()); err != nil {
		return err
	}
	fmt.Println()

	fmt.Printf("total simulated collection cost: lammps sweep $%.2f, openfoam sweep $%.2f\n",
		lammpsCost, foamCost)
	fmt.Printf("all artifacts in %s/\n", outDir)
	return nil
}

func sweep(cfgText string) (*dataset.Store, float64, error) {
	cfg, err := config.Parse([]byte(cfgText))
	if err != nil {
		return nil, 0, err
	}
	adv := core.New(cfg.Subscription)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		return nil, 0, err
	}
	report, err := adv.Collect(dep.Name, cfg, core.CollectOptions{})
	if err != nil {
		return nil, 0, err
	}
	return adv.Store, report.CollectionCostUSD, nil
}

func runStrategy(name, cfgText string, full *dataset.Store, fullCost float64) (sampler.Outcome, error) {
	cfg, err := config.Parse([]byte(cfgText))
	if err != nil {
		return sampler.Outcome{}, err
	}
	adv := core.New(cfg.Subscription)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		return sampler.Outcome{}, err
	}
	report, err := adv.Collect(dep.Name, cfg, core.CollectOptions{Sampler: name})
	if err != nil {
		return sampler.Outcome{}, err
	}
	return sampler.Evaluate(name, full, adv.Store,
		fullCost, report.CollectionCostUSD, report.Completed, report.Skipped), nil
}

func seriesText(p plot.Plot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s", p.Title)
	if p.Subtitle != "" {
		fmt.Fprintf(&b, " [%s]", p.Subtitle)
	}
	fmt.Fprintf(&b, "\n# x: %s, y: %s\n", p.XLabel, p.YLabel)
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%s:", s.Name)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, " (%.4g, %.4g)", pt.X, pt.Y)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func maxY(p plot.Plot) float64 {
	m := 0.0
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Y > m {
				m = pt.Y
			}
		}
	}
	return m
}

func writeText(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644) //hpcvet:allow atomicwrite regenerable repro artifact, not state
}
