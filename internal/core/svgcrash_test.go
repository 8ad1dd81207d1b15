package core

import (
	"bytes"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hpcadvisor/internal/plot"
)

// svgCrashPayloads are two distinguishable multi-megabyte bodies: big
// enough that a non-atomic write is overwhelmingly likely to be mid-flight
// when the SIGKILL lands, so reverting writeSVGs to raw os.WriteFile makes
// the torn-file check below fail.
func svgCrashPayloads() [][]byte {
	const size = 4 << 20
	a := bytes.Repeat([]byte("<svg>AAAAAAA</svg>\n"), size/19+1)
	b := bytes.Repeat([]byte("<svg>BBBBBBB</svg>\n"), size/19+1)
	return [][]byte{a, b}
}

// TestHelperSVGWriterProcess is the crash victim: re-executed as a child
// process, it rewrites the full SVG set in a tight loop, alternating
// between the two payloads, until it is killed.
func TestHelperSVGWriterProcess(t *testing.T) {
	dir := os.Getenv("HPCADVISOR_SVGCRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestWritePlotsSVGCrashSafety")
	}
	payloads := svgCrashPayloads()
	for i := 0; ; i++ {
		p := payloads[i%2]
		if _, err := writeSVGs(dir, func(string) ([]byte, error) { return p, nil }); err != nil {
			t.Fatalf("writeSVGs: %v", err)
		}
	}
}

// svgCrashStartDeadline bounds how long a round waits for the helper's
// first .svg. It is generous because it only guards against a helper that
// never writes; a healthy one publishes its first file in milliseconds.
const svgCrashStartDeadline = 60 * time.Second

// waitForSVG polls dir until a published .svg (not an fsatomic staging
// file) exists, and reports whether one appeared before the deadline.
func waitForSVG(dir string, deadline time.Duration) bool {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".svg") && !strings.Contains(e.Name(), ".tmp-") {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestWritePlotsSVGCrashSafety is the regression test for the raw
// os.WriteFile state write that used to live in writeSVGs (core.go:450):
// it SIGKILLs a child that is continuously rewriting the plot set and
// asserts every surviving .svg is byte-identical to one of the two
// payloads — never truncated, never interleaved. fsatomic staging files
// (*.tmp-*) may survive the kill; they are the mechanism, not a tear.
func TestWritePlotsSVGCrashSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	payloads := svgCrashPayloads()
	for round, delay := range []time.Duration{
		20 * time.Millisecond, 35 * time.Millisecond, 50 * time.Millisecond,
		65 * time.Millisecond, 80 * time.Millisecond,
	} {
		dir := t.TempDir()
		cmd := osexec.Command(os.Args[0], "-test.run=^TestHelperSVGWriterProcess$")
		cmd.Env = append(os.Environ(), "HPCADVISOR_SVGCRASH_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatalf("round %d: start helper: %v", round, err)
		}
		// The delay counts from the helper's first published .svg, not from
		// Start: under -race on a small host, process start-up alone can
		// outlast every delay, which would leave the check vacuous.
		if !waitForSVG(dir, svgCrashStartDeadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("round %d: helper wrote no .svg within %v", round, svgCrashStartDeadline)
		}
		time.Sleep(delay)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("round %d: kill helper: %v", round, err)
		}
		_ = cmd.Wait()

		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("round %d: read dir: %v", round, err)
		}
		svgs := 0
		for _, e := range entries {
			name := e.Name()
			if strings.Contains(name, ".tmp-") {
				continue // fsatomic staging file abandoned by the kill
			}
			if !strings.HasSuffix(name, ".svg") {
				t.Errorf("round %d: unexpected file %s", round, name)
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("round %d: read %s: %v", round, name, err)
			}
			if !bytes.Equal(data, payloads[0]) && !bytes.Equal(data, payloads[1]) {
				t.Errorf("round %d: %s is torn: %d bytes, neither payload (A=%d B=%d bytes)",
					round, name, len(data), len(payloads[0]), len(payloads[1]))
			}
			svgs++
		}
		// The helper must have gotten far enough for the check to mean
		// something; a full set is len(plot.SetNames) files.
		if round >= 2 && svgs == 0 {
			t.Errorf("round %d: helper produced no SVGs before the kill; check is vacuous", round)
		}
		_ = plot.SetNames
	}
}
