package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/storage"
)

// The kill-and-resume soak: a real child process runs `collect`, the parent
// kills it mid-sweep, and `collect -resume` in a fresh process must
// converge on a dataset and task list byte-identical to an uninterrupted
// run. A larger sweep than the smoke config keeps the kill window wide
// (every journal record is fsynced).
const soakConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: clitest
nnodes: [1, 2, 3, 4, 6, 8]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "10"
`

// TestHelperCollectProcess is not a test: it is the child process body for
// the soak tests, re-exec'ed from the test binary with the state dir and
// config passed through the environment. Arguments after the test binary's
// "--" are appended to the collect command line.
func TestHelperCollectProcess(t *testing.T) {
	if os.Getenv("HPCADVISOR_SOAK_HELPER") != "1" {
		t.Skip("helper process for the kill-and-resume soak")
	}
	code := Run(append([]string{
		"-state", os.Getenv("HPCADVISOR_SOAK_STATE"),
		"collect", "-c", os.Getenv("HPCADVISOR_SOAK_CONFIG"),
	}, flag.Args()...), os.Stdout, os.Stderr)
	os.Exit(code)
}

func writeSoakConfig(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "config.yaml")
	if err := os.WriteFile(path, []byte(soakConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// soakReference runs deploy create + collect in-process and returns the
// bytes of every artifact the resumed run must reproduce exactly.
func soakReference(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeSoakConfig(t, dir)
	if r := exec(t, state, "deploy", "create", "-c", cfg); r.code != 0 {
		t.Fatalf("reference deploy create: %s", r.err.String())
	}
	if r := exec(t, state, "collect", "-c", cfg); r.code != 0 {
		t.Fatalf("reference collect: %s", r.err.String())
	}
	return soakArtifacts(t, state)
}

// soakArtifacts reads every file of the dataset store and the task list
// for byte comparison.
func soakArtifacts(t *testing.T, state string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, data := range storeFiles(t, filepath.Join(state, "dataset.seg")) {
		out["dataset.seg/"+name] = data
	}
	tasks, err := os.ReadFile(filepath.Join(state, "tasks-clitest-0001.json"))
	if err != nil {
		t.Fatalf("artifact tasks-clitest-0001.json: %v", err)
	}
	out["tasks-clitest-0001.json"] = tasks
	return out
}

// interruptChildSweep starts the helper child on a fresh state dir with
// collectArgs appended to its collect command, waits for the journal to
// accumulate a few outcomes, and delivers sig. It reports the state dir,
// the config path, and whether the child was caught mid-sweep (false: the
// child finished first — caller retries).
func interruptChildSweep(t *testing.T, sig syscall.Signal, collectArgs ...string) (string, string, bool) {
	t.Helper()
	dir := t.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfg := writeSoakConfig(t, dir)
	if r := exec(t, state, "deploy", "create", "-c", cfg); r.code != 0 {
		t.Fatalf("deploy create: %s", r.err.String())
	}

	cmd := osexec.Command(os.Args[0],
		append([]string{"-test.run=^TestHelperCollectProcess$", "--"}, collectArgs...)...)
	cmd.Env = append(os.Environ(),
		"HPCADVISOR_SOAK_HELPER=1",
		"HPCADVISOR_SOAK_STATE="+state,
		"HPCADVISOR_SOAK_CONFIG="+cfg,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Poll the journal (safe concurrently with the writer: the frame
	// reader stops at the in-flight tail) until a mid-sweep state shows.
	jp := filepath.Join(state, "journal-clitest-0001.jnl")
	deadline := time.After(20 * time.Second)
	caught := false
	for !caught {
		select {
		case <-done:
			// Finished before we fired: no mid-sweep window this round.
			return state, cfg, false
		case <-deadline:
			_ = cmd.Process.Kill()
			<-done
			t.Fatal("child never journaled an outcome within 20s")
		case <-time.After(500 * time.Microsecond):
			replay, _, err := collector.ReadJournal(jp)
			if err == nil && !replay.Sealed && len(replay.Outcomes) >= 2 {
				caught = true
			}
		}
	}
	_ = cmd.Process.Signal(sig)
	<-done

	// The signal may still have raced a photo-finish completion.
	replay, _, err := collector.ReadJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Sealed && replay.SealReason == collector.SealComplete {
		return state, cfg, false
	}
	return state, cfg, true
}

// resumeAndCompare finishes the interrupted sweep with `collect -resume`
// in-process and asserts the artifacts equal the uninterrupted reference.
func resumeAndCompare(t *testing.T, state, cfg string, ref map[string][]byte) {
	t.Helper()
	r := exec(t, state, "collect", "-resume", "-c", cfg)
	if r.code != 0 {
		t.Fatalf("collect -resume: %s", r.err.String())
	}
	if !strings.Contains(r.out.String(), "resuming sweep") {
		t.Errorf("resume output = %q, want a resuming banner", r.out.String())
	}
	sameFiles(t, "resumed run vs uninterrupted run", soakArtifacts(t, state), ref)
	replay, _, err := collector.ReadJournal(filepath.Join(state, "journal-clitest-0001.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Sealed || replay.SealReason != collector.SealComplete {
		t.Errorf("journal after resume: sealed=%v reason=%q, want sealed complete",
			replay.Sealed, replay.SealReason)
	}
}

// TestKillAndResumeSoak: SIGKILL mid-sweep — no teardown, no seal, a
// possibly torn journal tail — then resume to the byte-identical dataset.
func TestKillAndResumeSoak(t *testing.T) {
	killAndResume(t, 1)
}

// TestKillAndResumeSoakParallelPools: the same soak with the killed child
// collecting three pool lanes concurrently. Lane outcomes are journaled
// non-durable and nothing is merged before the kill, so the sequential
// resume re-runs them to the sequential reference.
func TestKillAndResumeSoakParallelPools(t *testing.T) {
	killAndResume(t, 3)
}

// killAndResume SIGKILLs a child collect run with -parallel-pools parallel
// mid-sweep, then resumes it to the sequential reference.
func killAndResume(t *testing.T, parallel int) {
	t.Helper()
	var collectArgs []string
	if parallel > 1 {
		collectArgs = []string{"-parallel-pools", strconv.Itoa(parallel)}
	}
	ref := soakReference(t)
	for attempt := 1; ; attempt++ {
		state, cfg, caught := interruptChildSweep(t, syscall.SIGKILL, collectArgs...)
		if caught {
			replay, recs, err := collector.ReadJournal(filepath.Join(state, "journal-clitest-0001.jnl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 || recs[0].Parallel != parallel {
				t.Fatalf("killed child's journal does not begin with parallel=%d: %+v", parallel, recs[:min(1, len(recs))])
			}
			if replay.Sealed {
				t.Error("SIGKILL left a sealed journal; kill was not abrupt")
			}
			if !replay.Resumable() {
				t.Fatal("killed sweep's journal is not resumable")
			}
			resumeAndCompare(t, state, cfg, ref)
			return
		}
		if attempt >= 5 {
			t.Fatalf("child finished before the kill in %d attempts; enlarge the soak sweep", attempt)
		}
	}
}

// TestSigtermSealsAndResumes: graceful interruption — the CLI's signal
// handler stops at the task boundary, seals the journal as interrupted,
// and exits zero; the resume converges identically.
func TestSigtermSealsAndResumes(t *testing.T) {
	ref := soakReference(t)
	for attempt := 1; ; attempt++ {
		state, cfg, caught := interruptChildSweep(t, syscall.SIGTERM)
		if caught {
			replay, _, err := collector.ReadJournal(filepath.Join(state, "journal-clitest-0001.jnl"))
			if err != nil {
				t.Fatal(err)
			}
			if !replay.Sealed || replay.SealReason != collector.SealInterrupted {
				t.Fatalf("SIGTERM journal: sealed=%v reason=%q, want sealed interrupted",
					replay.Sealed, replay.SealReason)
			}
			resumeAndCompare(t, state, cfg, ref)
			return
		}
		if attempt >= 5 {
			t.Fatalf("child finished before SIGTERM in %d attempts; enlarge the soak sweep", attempt)
		}
	}
}

// TestHelperConvertProcess is not a test: it is the child process body for
// TestConvertKilledMidRunPublishesWholeOrNothing.
func TestHelperConvertProcess(t *testing.T) {
	if os.Getenv("HPCADVISOR_CONVERT_HELPER") != "1" {
		t.Skip("helper process for the convert crash test")
	}
	code := Run([]string{
		"-state", t.TempDir(),
		"dataset", "convert",
		"-store", os.Getenv("HPCADVISOR_CONVERT_SRC"),
		"-to", os.Getenv("HPCADVISOR_CONVERT_DST"),
	}, os.Stdout, os.Stderr)
	os.Exit(code)
}

// convertSource writes a JSON Lines dataset of n synthetic points and
// returns its path and bytes.
func convertSource(t *testing.T, n int) (string, []byte) {
	t.Helper()
	st := dataset.NewStore()
	for i := 0; i < n; i++ {
		alias := []string{"hb120rs_v3", "hb120rs_v2", "hc44rs"}[i%3]
		st.Add(dataset.Point{
			ScenarioID:  fmt.Sprintf("lammps-%s-n%d-%06d", alias, 1+i%16, i),
			AppName:     "lammps",
			SKU:         "Standard_" + alias,
			SKUAlias:    alias,
			NNodes:      1 + i%16,
			PPN:         100,
			InputDesc:   fmt.Sprintf("BOXFACTOR=%d", 10+i%5),
			ExecTimeSec: 1000 / float64(1+i%16),
			CostUSD:     float64(1+i%7) / 3,
			Metrics:     map[string]string{"APPEXECTIME": fmt.Sprint(i)},
		})
	}
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// assertWholeStore fails unless the store at dir holds exactly the points
// of the JSON Lines bytes want, in order.
func assertWholeStore(t *testing.T, dir string, want []byte) {
	t.Helper()
	s, err := storage.OpenBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store %s holds %d points that differ from the source", dir, st.Len())
	}
}

// TestConvertKilledMidRunPublishesWholeOrNothing: SIGKILL a child `dataset
// convert` once its output starts to appear on disk. The destination is
// then absent or holds every point (never a partial store a later command
// would serve as the dataset), and a re-run converts cleanly over whatever
// the killed run left behind.
func TestConvertKilledMidRunPublishesWholeOrNothing(t *testing.T) {
	src, want := convertSource(t, 4000)
	for attempt := 1; ; attempt++ {
		dst := filepath.Join(t.TempDir(), "dataset.seg")
		cmd := osexec.Command(os.Args[0], "-test.run=^TestHelperConvertProcess$")
		cmd.Env = append(os.Environ(),
			"HPCADVISOR_CONVERT_HELPER=1",
			"HPCADVISOR_CONVERT_SRC="+src,
			"HPCADVISOR_CONVERT_DST="+dst,
		)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		// Kill as soon as anything of the output exists: the staging
		// directory, or the destination itself.
		exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
		deadline := time.After(20 * time.Second)
		finished := false
		for !finished {
			select {
			case <-done:
				finished = true
			case <-deadline:
				_ = cmd.Process.Kill()
				<-done
				t.Fatal("child convert produced no output within 20s")
			case <-time.After(200 * time.Microsecond):
				if exists(dst) || exists(dst+".tmp") {
					_ = cmd.Process.Kill()
					<-done
					finished = true
				}
			}
		}

		if exists(dst) {
			// Killed after the publish (or finished first): whole.
			assertWholeStore(t, dst, want)
		} else {
			r := exec(t, t.TempDir(), "dataset", "convert", "-store", src, "-to", dst)
			if r.code != 0 {
				t.Fatalf("re-run after a killed convert: %s", r.err.String())
			}
			assertWholeStore(t, dst, want)
			if exists(dst + ".tmp") {
				t.Error("re-run left the staging directory behind")
			}
			return
		}
		if attempt >= 5 {
			t.Fatalf("convert finished before the kill in %d attempts; enlarge the source", attempt)
		}
	}
}
