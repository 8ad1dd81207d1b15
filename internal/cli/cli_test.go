package cli

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/service"
)

const testConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
rgprefix: clitest
nnodes: [1, 2]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "10"
`

type run struct {
	out, err bytes.Buffer
	code     int
}

func exec(t *testing.T, stateDir string, args ...string) *run {
	t.Helper()
	r := &run{}
	full := append([]string{"-state", stateDir}, args...)
	r.code = Run(full, &r.out, &r.err)
	return r
}

// storeFiles reads every file of the segment store at dir, by name, for
// byte comparison. A missing or empty store fails the test, so comparing
// two of them can never pass vacuously.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading store %s: %v", dir, err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("store file %s: %v", e.Name(), err)
		}
		files[e.Name()] = data
	}
	if len(files) == 0 {
		t.Fatalf("store %s holds no files", dir)
	}
	return files
}

// sameFiles reports every difference between two name -> bytes maps.
func sameFiles(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: %s is missing", what, name)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs (%d bytes, want %d)", what, name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected file %s", what, name)
		}
	}
}

func writeConfig(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "config.yaml")
	if err := os.WriteFile(path, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTableIICLICommands(t *testing.T) {
	// The full command set of the paper's Table II, exercised in sequence
	// across separate invocations (state persists in the state dir).
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)

	// deploy create
	r := exec(t, state, "deploy", "create", "-c", cfg)
	if r.code != 0 {
		t.Fatalf("deploy create failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "deployment created: clitest-") {
		t.Errorf("create output = %q", r.out.String())
	}

	// deploy list
	r = exec(t, state, "deploy", "list", "-c", cfg)
	if r.code != 0 || !strings.Contains(r.out.String(), "clitest-") {
		t.Errorf("deploy list = %q (%s)", r.out.String(), r.err.String())
	}

	// collect
	r = exec(t, state, "collect", "-c", cfg)
	if r.code != 0 {
		t.Fatalf("collect failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "2 completed") {
		t.Errorf("collect output = %q", r.out.String())
	}
	if !strings.Contains(r.out.String(), "collection cost: $") {
		t.Errorf("collect should report cost: %q", r.out.String())
	}

	// plot (SVG files)
	plotDir := filepath.Join(dir, "plots")
	r = exec(t, state, "plot", "-o", plotDir)
	if r.code != 0 {
		t.Fatalf("plot failed: %s", r.err.String())
	}
	files, _ := filepath.Glob(filepath.Join(plotDir, "*.svg"))
	if len(files) != 5 {
		t.Errorf("plot files = %v", files)
	}

	// plot -ascii
	r = exec(t, state, "plot", "-ascii")
	if r.code != 0 || !strings.Contains(r.out.String(), "Exectime") {
		t.Errorf("ascii plot = %q", r.out.String())
	}

	// advice
	r = exec(t, state, "advice", "-app", "lammps")
	if r.code != 0 {
		t.Fatalf("advice failed: %s", r.err.String())
	}
	for _, want := range []string{"Exectime(s)", "Cost($)", "Nodes", "SKU", "hb120rs_v3"} {
		if !strings.Contains(r.out.String(), want) {
			t.Errorf("advice output missing %q:\n%s", want, r.out.String())
		}
	}

	// advice sorted by cost
	r = exec(t, state, "advice", "-sort", "cost")
	if r.code != 0 {
		t.Fatalf("advice -sort cost failed: %s", r.err.String())
	}

	// deploy shutdown
	name := deployedName(t, state)
	r = exec(t, state, "deploy", "shutdown", "-n", name, "-c", cfg)
	if r.code != 0 {
		t.Fatalf("shutdown failed: %s", r.err.String())
	}
	r = exec(t, state, "deploy", "list", "-c", cfg)
	if !strings.Contains(r.out.String(), "no deployments") {
		t.Errorf("after shutdown list = %q", r.out.String())
	}
}

func deployedName(t *testing.T, stateDir string) string {
	t.Helper()
	c := &CLI{StateDir: stateDir}
	st, err := c.loadState()
	if err != nil || len(st.Deployments) == 0 {
		t.Fatalf("state unreadable: %v", err)
	}
	return st.Deployments[0].Name
}

func TestCollectResumeAcrossInvocations(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	exec(t, state, "collect", "-c", cfg)
	// Second collect: the persisted task list shows nothing pending.
	r := exec(t, state, "collect", "-c", cfg)
	if r.code != 0 {
		t.Fatalf("second collect failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "0 completed") {
		t.Errorf("resume output = %q", r.out.String())
	}
}

func TestCollectWithSamplerFlag(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	r := exec(t, state, "collect", "-c", cfg, "-sampler", "discard")
	if r.code != 0 {
		t.Fatalf("sampler collect failed: %s", r.err.String())
	}
	r = exec(t, state, "collect", "-c", cfg, "-sampler", "bogus")
	if r.code == 0 {
		t.Error("bogus sampler should fail")
	}
}

func TestUsageAndErrors(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfgPath := writeConfig(t, dir)

	// No args prints usage.
	r := exec(t, state)
	if r.code != 0 || !strings.Contains(r.out.String(), "deploy create") {
		t.Errorf("usage output = %q", r.out.String())
	}
	// help command too.
	r = exec(t, state, "help")
	if r.code != 0 || !strings.Contains(r.out.String(), "Table II") {
		t.Errorf("help = %q", r.out.String())
	}
	// Unknown command.
	if r = exec(t, state, "frobnicate"); r.code == 0 {
		t.Error("unknown command should fail")
	}
	// Missing config.
	if r = exec(t, state, "deploy", "create"); r.code == 0 {
		t.Error("create without config should fail")
	}
	// deploy without subcommand.
	if r = exec(t, state, "deploy"); r.code == 0 {
		t.Error("bare deploy should fail")
	}
	// shutdown without name.
	if r = exec(t, state, "deploy", "shutdown", "-c", cfgPath); r.code == 0 {
		t.Error("shutdown without -n should fail")
	}
	// collect without deployment.
	if r = exec(t, state, "collect", "-c", cfgPath); r.code == 0 {
		t.Error("collect without deployment should fail")
	}
	// plot with empty dataset.
	if r = exec(t, state, "plot"); r.code == 0 {
		t.Error("plot without data should fail")
	}
	// advice with empty dataset.
	if r = exec(t, state, "advice"); r.code == 0 {
		t.Error("advice without data should fail")
	}
	// advice with a bad sort needs data first, so check flag error directly.
	exec(t, state, "deploy", "create", "-c", cfgPath)
	exec(t, state, "collect", "-c", cfgPath)
	if r = exec(t, state, "advice", "-sort", "speed"); r.code == 0 {
		t.Error("bad sort should fail")
	}
}

func TestAppsCommand(t *testing.T) {
	r := exec(t, t.TempDir(), "apps")
	if r.code != 0 {
		t.Fatalf("apps failed: %s", r.err.String())
	}
	for _, want := range []string{"lammps", "openfoam", "wrf", "gromacs", "namd", "matmul"} {
		if !strings.Contains(r.out.String(), want) {
			t.Errorf("apps output missing %q", want)
		}
	}
}

func TestGUICommandWiring(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfgPath := writeConfig(t, dir)
	var out, errb bytes.Buffer
	c := &CLI{Stdout: &out, Stderr: &errb, StateDir: state}
	served := ""
	c.ServeGUI = func(addr string, adv *core.Advisor, cfg *config.Config) error {
		served = addr
		if adv == nil || cfg == nil {
			t.Error("gui received nil advisor or config")
		}
		return nil
	}
	if err := c.run([]string{"gui", "-addr", ":9999", "-c", cfgPath}); err != nil {
		t.Fatalf("gui: %v", err)
	}
	if served != ":9999" {
		t.Errorf("served addr = %q", served)
	}
}

func TestCorruptStateSurfacesError(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	if err := os.MkdirAll(state, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "deployments.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := writeConfig(t, dir)
	r := exec(t, state, "deploy", "create", "-c", cfgPath)
	if r.code == 0 {
		t.Error("corrupt state should fail")
	}
	if !strings.Contains(r.err.String(), "corrupt state") {
		t.Errorf("error = %q", r.err.String())
	}
}

func TestAdviceRecipesFlag(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	exec(t, state, "collect", "-c", cfg)
	r := exec(t, state, "advice", "-recipes")
	if r.code != 0 {
		t.Fatalf("advice -recipes failed: %s", r.err.String())
	}
	for _, want := range []string{"#SBATCH --nodes=", "vm_type: Standard_HB120rs_v3", "srun --mpi=pmix"} {
		if !strings.Contains(r.out.String(), want) {
			t.Errorf("recipes output missing %q", want)
		}
	}
	// Bad pricing region fails cleanly.
	if r = exec(t, state, "advice", "-recipes", "-region", "atlantis"); r.code == 0 {
		t.Error("bad region should fail")
	}
}

func TestCollectSpotFlag(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	r := exec(t, state, "collect", "-c", cfg, "-spot", "-attempts", "10")
	if r.code != 0 {
		t.Fatalf("spot collect failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "2 completed") {
		t.Errorf("spot collect output = %q", r.out.String())
	}
}

func TestCollectBudgetFlag(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	r := exec(t, state, "collect", "-c", cfg, "-budget", "2.0")
	if r.code != 0 {
		t.Fatalf("budget collect failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "adaptive collection") {
		t.Errorf("output = %q", r.out.String())
	}
	// Advice exists from whatever was collected within budget.
	r = exec(t, state, "advice")
	if r.code != 0 {
		t.Fatalf("advice after budget collect: %s", r.err.String())
	}
}

func TestCollectParallelPoolsFlag(t *testing.T) {
	// The same 3-SKU sweep collected sequentially and with -parallel-pools
	// must leave byte-identical store files behind, and the parallel run
	// reports its concurrent cloud time.
	multiSKU := strings.Replace(testConfig,
		"skus:\n  - Standard_HB120rs_v3",
		"skus:\n  - Standard_HB120rs_v3\n  - Standard_HB120rs_v2\n  - Standard_HC44rs", 1)

	collect := func(extra ...string) (string, map[string][]byte) {
		dir := t.TempDir()
		state := filepath.Join(dir, ".hpcadvisor")
		cfgPath := filepath.Join(dir, "config.yaml")
		if err := os.WriteFile(cfgPath, []byte(multiSKU), 0o644); err != nil {
			t.Fatal(err)
		}
		exec(t, state, "deploy", "create", "-c", cfgPath)
		r := exec(t, state, append([]string{"collect", "-c", cfgPath}, extra...)...)
		if r.code != 0 {
			t.Fatalf("collect %v failed: %s", extra, r.err.String())
		}
		return r.out.String(), storeFiles(t, filepath.Join(state, "dataset.seg"))
	}

	_, seqData := collect()
	out, parData := collect("-parallel-pools", "3")
	sameFiles(t, "-parallel-pools 3 store vs sequential collect", parData, seqData)
	if !strings.Contains(out, "parallel lanes: 3 pools x 3 workers") {
		t.Errorf("parallel collect output missing lane summary: %q", out)
	}
	if !strings.Contains(out, "6 completed") {
		t.Errorf("parallel collect output = %q", out)
	}
}

const predictConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HC44rs
rgprefix: clitest
nnodes: [1, 2, 4, 8]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "12"
`

func collectPredictFixture(t *testing.T) (stateDir string) {
	t.Helper()
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	path := filepath.Join(dir, "config.yaml")
	if err := os.WriteFile(path, []byte(predictConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := exec(t, state, "deploy", "create", "-c", path); r.code != 0 {
		t.Fatalf("deploy create failed: %s", r.err.String())
	}
	if r := exec(t, state, "collect", "-c", path); r.code != 0 {
		t.Fatalf("collect failed: %s", r.err.String())
	}
	return state
}

func TestPredictCommand(t *testing.T) {
	state := collectPredictFixture(t)
	r := exec(t, state, "predict", "-app", "lammps", "-grid", "1,2,4,8,16,32")
	if r.code != 0 {
		t.Fatalf("predict failed: %s", r.err.String())
	}
	out := r.out.String()
	for _, want := range []string{"Source", "measured", "predicted/", "backtest (leave-one-out", "MAPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q:\n%s", want, out)
		}
	}
	// Predicted rows surface untested node counts.
	if !strings.Contains(out, "32") {
		t.Errorf("predict output lacks the extrapolated 32-node scenario:\n%s", out)
	}

	// Bad grid errors cleanly.
	if r := exec(t, state, "predict", "-grid", "1,zero"); r.code == 0 {
		t.Error("invalid grid should fail")
	}
	// So does a grid naming more node counts than a request may ask for.
	if r := exec(t, state, "predict", "-grid", strings.Repeat("2,", 1000)+"2"); r.code == 0 ||
		!strings.Contains(r.err.String(), "1001 node counts") {
		t.Errorf("oversized grid should fail with its count, got code %d: %s", r.code, r.err.String())
	}
	// Bad sort errors cleanly.
	if r := exec(t, state, "predict", "-sort", "vibes"); r.code == 0 {
		t.Error("invalid sort should fail")
	}
}

func TestAdvicePredictFlag(t *testing.T) {
	state := collectPredictFixture(t)
	plain := exec(t, state, "advice", "-app", "lammps")
	if plain.code != 0 {
		t.Fatalf("advice failed: %s", plain.err.String())
	}
	if strings.Contains(plain.out.String(), "predicted/") {
		t.Error("plain advice must not contain predicted rows")
	}
	r := exec(t, state, "advice", "-app", "lammps", "-predict", "-grid", "1,2,4,8,16")
	if r.code != 0 {
		t.Fatalf("advice -predict failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "predicted/") || !strings.Contains(r.out.String(), "measured") {
		t.Errorf("advice -predict output unmarked:\n%s", r.out.String())
	}
}

func TestPlotPredictFlag(t *testing.T) {
	state := collectPredictFixture(t)
	r := exec(t, state, "plot", "-predict", "-grid", "1,2,4,8,16,32", "-ascii")
	if r.code != 0 {
		t.Fatalf("plot -predict -ascii failed: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "(predicted)") {
		t.Errorf("ascii plot lacks predicted series:\n%s", r.out.String())
	}
	dir := t.TempDir()
	r = exec(t, state, "plot", "-predict", "-o", dir)
	if r.code != 0 {
		t.Fatalf("plot -predict failed: %s", r.err.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "exectime_vs_nodes.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "stroke-dasharray") {
		t.Error("predicted SVG lacks dashed overlay")
	}
}

func TestAdvicePredictRecipesCoverDisplayedMeasuredRows(t *testing.T) {
	state := collectPredictFixture(t)
	r := exec(t, state, "advice", "-app", "lammps", "-predict", "-grid", "1,2,4,8,16,32", "-recipes")
	if r.code != 0 {
		t.Fatalf("advice -predict -recipes failed: %s", r.err.String())
	}
	out := r.out.String()
	if !strings.Contains(out, "predicted/") {
		t.Fatalf("merged table missing predicted rows:\n%s", out)
	}
	// Recipes exist for measured rows and never name a predicted node
	// count: 16 and 32 nodes were never run.
	if !strings.Contains(out, "#SBATCH") {
		t.Errorf("no recipes emitted:\n%s", out)
	}
	for _, banned := range []string{"--nodes=16", "--nodes=32"} {
		if strings.Contains(out, banned) {
			t.Errorf("recipe emitted for predicted scenario (%s):\n%s", banned, out)
		}
	}
	if !strings.Contains(r.err.String(), "measured rows only") {
		t.Errorf("missing predicted-rows note on stderr: %q", r.err.String())
	}
}

// TestCorruptTaskListSurfacesError: a corrupt task list must error out
// instead of being silently treated as missing (which would re-run every
// scenario and double the dataset).
func TestCorruptTaskListSurfacesError(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	exec(t, state, "collect", "-c", cfg)

	name := deployedName(t, state)
	taskPath := filepath.Join(state, "tasks-"+name+".json")
	if err := os.WriteFile(taskPath, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := exec(t, state, "collect", "-c", cfg)
	if r.code == 0 {
		t.Fatal("collect with a corrupt task list should fail")
	}
	if !strings.Contains(r.err.String(), "task list") {
		t.Errorf("error should name the task list, got %q", r.err.String())
	}
	// A genuinely missing list is still fine (fresh start).
	if err := os.Remove(taskPath); err != nil {
		t.Fatal(err)
	}
	if r = exec(t, state, "collect", "-c", cfg); r.code != 0 {
		t.Errorf("collect with a missing task list should regenerate it: %s", r.err.String())
	}
}

// TestDatasetSubcommands drives the storage engine end-to-end through the
// CLI: collect into the default segment store, info, compact (advice
// unchanged), and a store -> jsonl -> store -> jsonl round trip that is
// byte-identical.
func TestDatasetSubcommands(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	if r := exec(t, state, "collect", "-c", cfg); r.code != 0 {
		t.Fatalf("collect: %s", r.err.String())
	}
	if fi, err := os.Stat(filepath.Join(state, "dataset.seg")); err != nil || !fi.IsDir() {
		t.Fatalf("collect did not create the default segment store: %v", err)
	}
	if _, err := os.Stat(filepath.Join(state, "dataset.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("collect wrote a dataset.jsonl (stat err %v)", err)
	}

	// info on the default store: the collected points sit in the WAL.
	r := exec(t, state, "dataset", "info")
	if r.code != 0 {
		t.Fatalf("dataset info: %s", r.err.String())
	}
	for _, sub := range []string{"format:          segment", "points:          2", "log segments:    1"} {
		if !strings.Contains(r.out.String(), sub) {
			t.Errorf("info output missing %q:\n%s", sub, r.out.String())
		}
	}
	before := exec(t, state, "advice")
	if before.code != 0 {
		t.Fatalf("advice: %s", before.err.String())
	}

	// compact, then advice again: unchanged
	r = exec(t, state, "dataset", "compact")
	if r.code != 0 || !strings.Contains(r.out.String(), "2 points in sorted snapshot segment") {
		t.Fatalf("compact = %q (%s)", r.out.String(), r.err.String())
	}
	after := exec(t, state, "advice")
	if after.code != 0 || after.out.String() != before.out.String() {
		t.Errorf("advice changed across compaction:\nbefore: %s\nafter: %s",
			before.out.String(), after.out.String())
	}

	// info on the compacted store reports the v2 columnar layout and
	// whether this machine serves it via mmap.
	r = exec(t, state, "dataset", "info")
	if r.code != 0 {
		t.Fatalf("post-compact info: %s", r.err.String())
	}
	for _, sub := range []string{"snapshot format: v2", "symbol table", "columns",
		"failed bitmap", "row data", "mmap served"} {
		if !strings.Contains(r.out.String(), sub) {
			t.Errorf("post-compact info missing %q:\n%s", sub, r.out.String())
		}
	}

	// export, import, export again: the two exports are byte-identical,
	// and advice serves identically from the imported store.
	out1 := filepath.Join(dir, "out1.jsonl")
	back := filepath.Join(dir, "back.seg")
	out2 := filepath.Join(dir, "out2.jsonl")
	r = exec(t, state, "dataset", "convert", "-to", out1)
	if r.code != 0 || !strings.Contains(r.out.String(), "converted 2 points") {
		t.Fatalf("export = %q (%s)", r.out.String(), r.err.String())
	}
	if r = exec(t, state, "dataset", "convert", "-store", out1, "-to", back); r.code != 0 {
		t.Fatalf("import: %s", r.err.String())
	}
	if r = exec(t, state, "dataset", "convert", "-store", back, "-to", out2); r.code != 0 {
		t.Fatalf("re-export: %s", r.err.String())
	}
	raw1, _ := os.ReadFile(out1)
	raw2, _ := os.ReadFile(out2)
	if len(raw1) == 0 || !bytes.Equal(raw1, raw2) {
		t.Errorf("jsonl -> seg -> jsonl is not byte-identical:\n%s\nvs\n%s", raw1, raw2)
	}
	if r = exec(t, state, "advice", "-store", back); r.out.String() != before.out.String() {
		t.Errorf("advice from the imported store differs:\n%s\nvs\n%s", r.out.String(), before.out.String())
	}

	// a convert never writes into a destination that holds data
	if r = exec(t, state, "dataset", "convert", "-store", out1, "-to", back); r.code == 0 {
		t.Error("convert onto a non-empty store should fail")
	}
	// unknown subcommand and missing -to
	if r = exec(t, state, "dataset", "bogus"); r.code == 0 {
		t.Error("unknown dataset subcommand should fail")
	}
	if r = exec(t, state, "dataset", "convert"); r.code == 0 {
		t.Error("convert without -to should fail")
	}
}

// dirListing renders a directory tree's names, sizes and modification
// times, so a test can assert that a command wrote nothing.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %s\n", path, fi.Size(), fi.ModTime())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestLegacyJSONLStateDir: a state dir that holds a dataset.jsonl but no
// dataset.seg is never opened or rewritten silently. Every command that
// opens the default store fails naming the exact convert command and
// leaves the state dir as it was; after that convert, advice prints what
// the JSON Lines dataset holds.
func TestLegacyJSONLStateDir(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfg)
	if r := exec(t, state, "collect", "-c", cfg); r.code != 0 {
		t.Fatalf("collect: %s", r.err.String())
	}
	// Turn it into a legacy dir: the dataset as JSON Lines, no store.
	jsonl := filepath.Join(state, "dataset.jsonl")
	seg := filepath.Join(state, "dataset.seg")
	if r := exec(t, state, "dataset", "convert", "-to", jsonl); r.code != 0 {
		t.Fatalf("export: %s", r.err.String())
	}
	if err := os.RemoveAll(seg); err != nil {
		t.Fatal(err)
	}

	// The advice the JSON Lines dataset holds, computed in-process.
	legacy, err := dataset.LoadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New("mysubscription")
	ref.SetStore(legacy)
	req, err := service.ParseAdviceRequest(url.Values{"sort": {"time"}})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := service.New(ref).AdvicePage(req)
	if err != nil || !strings.Contains(want, "hb120rs_v3") {
		t.Fatalf("reference advice = %q, %v", want, err)
	}

	fix := "hpcadvisor dataset convert -store " + jsonl + " -to " + seg
	listing := dirListing(t, state)
	for _, args := range [][]string{
		{"collect", "-c", cfg},
		{"advice"},
		{"dataset", "info"},
		{"advice", "-store", jsonl},
	} {
		r := exec(t, state, args...)
		if r.code == 0 || !strings.Contains(r.err.String(), fix) {
			t.Errorf("%v on a legacy dir = exit %d, stderr %q; want a failure naming %q", args, r.code, r.err.String(), fix)
		}
	}
	c := &CLI{Stdout: io.Discard, Stderr: io.Discard, StateDir: state}
	c.ServeHTTP = func(string, http.Handler) error {
		t.Error("serve started on a legacy dir")
		return nil
	}
	if err := c.run([]string{"serve", "-c", cfg}); err == nil || !strings.Contains(err.Error(), fix) {
		t.Errorf("serve on a legacy dir = %v; want a failure naming %q", err, fix)
	}
	if got := dirListing(t, state); got != listing {
		t.Errorf("failed commands changed the state dir:\nbefore:\n%s\nafter:\n%s", listing, got)
	}

	if r := exec(t, state, "dataset", "convert", "-store", jsonl, "-to", seg); r.code != 0 {
		t.Fatalf("the named convert failed: %s", r.err.String())
	}
	r := exec(t, state, "advice")
	if r.code != 0 || r.out.String() != want {
		t.Errorf("advice after convert = %q (%s), want the JSON Lines advice %q", r.out.String(), r.err.String(), want)
	}

	// Converted already: the message names the store to open, not a
	// convert that would fail because its destination exists.
	r = exec(t, state, "advice", "-store", jsonl)
	if r.code == 0 || !strings.Contains(r.err.String(), "use -store "+seg) || strings.Contains(r.err.String(), "dataset convert") {
		t.Errorf("advice -store %s after convert = exit %d, stderr %q; want a failure naming -store %s", jsonl, r.code, r.err.String(), seg)
	}
}

// TestCollectIntoSegmentStore streams a collection straight into a segment
// store via -store and reads it back across invocations.
func TestCollectIntoSegmentStore(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeConfig(t, dir)
	seg := filepath.Join(state, "dataset.seg")
	exec(t, state, "deploy", "create", "-c", cfg)
	if r := exec(t, state, "collect", "-c", cfg, "-store", seg); r.code != 0 {
		t.Fatalf("collect -store: %s", r.err.String())
	}
	r := exec(t, state, "dataset", "info", "-store", seg)
	if r.code != 0 || !strings.Contains(r.out.String(), "points:          2") {
		t.Fatalf("segment info after collect = %q (%s)", r.out.String(), r.err.String())
	}
	r = exec(t, state, "advice", "-store", seg)
	if r.code != 0 || !strings.Contains(r.out.String(), "hb120rs_v3") {
		t.Errorf("advice from segment store = %q (%s)", r.out.String(), r.err.String())
	}
}

// TestServeCommandWiring checks the serve command builds the combined
// API+GUI handler over the persisted state: the JSON API answers with the
// collected dataset, ETag revalidation works, and the GUI pages are on the
// same mux.
func TestServeCommandWiring(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfgPath := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfgPath)
	if r := exec(t, state, "collect", "-c", cfgPath); r.code != 0 {
		t.Fatalf("collect: %s", r.err.String())
	}

	var out, errb bytes.Buffer
	c := &CLI{Stdout: &out, Stderr: &errb, StateDir: state}
	served := ""
	c.ServeHTTP = func(addr string, h http.Handler) error {
		served = addr
		ts := httptest.NewServer(h)
		defer ts.Close()

		resp, err := ts.Client().Get(ts.URL + "/api/v1/advice")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "hb120rs_v3") {
			t.Fatalf("served advice = %d: %s", resp.StatusCode, body)
		}
		tag := resp.Header.Get("ETag")
		if tag == "" {
			t.Fatal("advice response missing ETag")
		}

		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/advice", nil)
		req.Header.Set("If-None-Match", tag)
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		revalidated, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(revalidated) != 0 {
			t.Fatalf("revalidation = %d (%d bytes), want empty 304", resp.StatusCode, len(revalidated))
		}

		// The default store is a segment store, so serve is a replication
		// leader.
		resp, err = ts.Client().Get(ts.URL + "/replica/v1/manifest")
		if err != nil {
			t.Fatal(err)
		}
		manifest, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(manifest), `"segments"`) {
			t.Fatalf("replica manifest = %d: %s", resp.StatusCode, manifest)
		}

		// GUI rides the same mux.
		resp, err = ts.Client().Get(ts.URL + "/advice")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(page), "Pareto front") {
			t.Fatalf("served GUI advice = %d", resp.StatusCode)
		}
		return nil
	}
	if err := c.run([]string{"serve", "-addr", ":9998", "-c", cfgPath}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if served != ":9998" {
		t.Errorf("served addr = %q", served)
	}
}

// TestAdviceNodeBoundFlags exercises the shared parse path from the CLI:
// node-range filters narrow the front, and malformed bounds surface the
// service layer's bad-request error.
func TestAdviceNodeBoundFlags(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfgPath := writeConfig(t, dir)
	exec(t, state, "deploy", "create", "-c", cfgPath)
	if r := exec(t, state, "collect", "-c", cfgPath); r.code != 0 {
		t.Fatalf("collect: %s", r.err.String())
	}
	if r := exec(t, state, "advice", "-minnodes", "1", "-maxnodes", "2"); r.code != 0 {
		t.Fatalf("advice with bounds: %s", r.err.String())
	}
	r := exec(t, state, "advice", "-minnodes", "banana")
	if r.code == 0 || !strings.Contains(r.err.String(), "invalid minnodes") {
		t.Fatalf("bad minnodes accepted: %q", r.err.String())
	}
	r = exec(t, state, "advice", "-sort", "sideways")
	if r.code == 0 || !strings.Contains(r.err.String(), "unknown sort") {
		t.Fatalf("bad sort accepted: %q", r.err.String())
	}
}
