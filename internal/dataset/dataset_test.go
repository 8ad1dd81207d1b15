package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hpcadvisor/internal/monitor"
)

func samplePoint(sku, alias string, nodes int, exect, cost float64) Point {
	return Point{
		ScenarioID:  "lammps-" + alias,
		AppName:     "lammps",
		SKU:         sku,
		SKUAlias:    alias,
		NNodes:      nodes,
		PPN:         120,
		InputDesc:   "atoms=864M",
		ExecTimeSec: exect,
		CostUSD:     cost,
		Tags:        map[string]string{"version": "v1"},
		Metrics:     map[string]string{"APPEXECTIME": "36"},
		Utilization: monitor.Sample{CPUUtil: 0.8, MemBWUtil: 0.2, NetUtil: 0.1},
		Bottleneck:  monitor.BottleneckCPU,
	}
}

func populated() *Store {
	s := NewStore()
	s.Add(samplePoint("Standard_HB120rs_v3", "hb120rs_v3", 16, 36, 0.576))
	s.Add(samplePoint("Standard_HB120rs_v3", "hb120rs_v3", 8, 69, 0.552))
	s.Add(samplePoint("Standard_HB120rs_v2", "hb120rs_v2", 16, 43, 0.688))
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 16, 99, 1.394))
	failed := samplePoint("Standard_HC44rs", "hc44rs", 1, 0, 0)
	failed.Failed = true
	failed.Error = "out of memory"
	s.Add(failed)
	other := samplePoint("Standard_HB120rs_v3", "hb120rs_v3", 4, 55, 0.222)
	other.AppName = "openfoam"
	other.InputDesc = "cells=8M"
	s.Add(other)
	return s
}

func TestSelectDefaultsExcludeFailed(t *testing.T) {
	s := populated()
	got := s.Select(Filter{})
	if len(got) != 5 {
		t.Fatalf("Select = %d points, want 5 (failed excluded)", len(got))
	}
	withFailed := s.Select(Filter{IncludeFailed: true})
	if len(withFailed) != 6 {
		t.Fatalf("Select incl failed = %d, want 6", len(withFailed))
	}
}

func TestFilterFields(t *testing.T) {
	s := populated()
	if got := s.Select(Filter{AppName: "lammps"}); len(got) != 4 {
		t.Errorf("by app = %d, want 4", len(got))
	}
	// SKU matches by alias or full name, case-insensitively.
	if got := s.Select(Filter{SKU: "hb120rs_v3"}); len(got) != 3 {
		t.Errorf("by alias = %d, want 3", len(got))
	}
	if got := s.Select(Filter{SKU: "STANDARD_HB120RS_V3"}); len(got) != 3 {
		t.Errorf("by name = %d, want 3", len(got))
	}
	if got := s.Select(Filter{InputDesc: "cells=8M"}); len(got) != 1 {
		t.Errorf("by input = %d, want 1", len(got))
	}
	if got := s.Select(Filter{MinNodes: 8}); len(got) != 4 {
		t.Errorf("min nodes = %d, want 4", len(got))
	}
	if got := s.Select(Filter{MaxNodes: 8}); len(got) != 2 {
		t.Errorf("max nodes = %d, want 2", len(got))
	}
	if got := s.Select(Filter{Tags: map[string]string{"version": "v1"}}); len(got) != 5 {
		t.Errorf("by tag = %d, want 5", len(got))
	}
	if got := s.Select(Filter{Tags: map[string]string{"version": "v2"}}); len(got) != 0 {
		t.Errorf("wrong tag = %d, want 0", len(got))
	}
}

func TestSelectOrdering(t *testing.T) {
	s := populated()
	got := s.Select(Filter{AppName: "lammps"})
	// Ordered by (alias, input, nodes): hb120rs_v2 before hb120rs_v3, and
	// within v3, 8 nodes before 16.
	if got[0].SKUAlias != "hb120rs_v2" {
		t.Errorf("first = %s", got[0].SKUAlias)
	}
	if got[1].SKUAlias != "hb120rs_v3" || got[1].NNodes != 8 {
		t.Errorf("second = %s n=%d", got[1].SKUAlias, got[1].NNodes)
	}
	if got[2].NNodes != 16 {
		t.Errorf("third n = %d", got[2].NNodes)
	}
}

func TestAppsEnumeration(t *testing.T) {
	s := populated()
	apps := s.Apps()
	if len(apps) != 2 || apps[0] != "lammps" || apps[1] != "openfoam" {
		t.Errorf("Apps = %v", apps)
	}
}

func TestTotalCores(t *testing.T) {
	p := samplePoint("Standard_HB120rs_v3", "hb120rs_v3", 16, 36, 0.576)
	if p.TotalCores() != 1920 {
		t.Errorf("cores = %d, want 1920 (paper: scenarios run up to 1,920 cores)", p.TotalCores())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := populated()
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), s.Len())
	}
	a, b := s.All(), got.All()
	for i := range a {
		if a[i].ScenarioID != b[i].ScenarioID || a[i].ExecTimeSec != b[i].ExecTimeSec ||
			a[i].Failed != b[i].Failed || a[i].Metrics["APPEXECTIME"] != b[i].Metrics["APPEXECTIME"] {
			t.Errorf("point %d mismatch: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFileRoundTripAndMissingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dataset.jsonl")
	s := populated()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Errorf("len = %d", got.Len())
	}
	// Missing file is an empty store, not an error.
	empty, err := LoadFile(filepath.Join(dir, "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("missing file len = %d", empty.Len())
	}
}

func TestUnmarshalSkipsBlankLinesRejectsGarbage(t *testing.T) {
	good := "\n{\"scenario_id\":\"a\",\"appname\":\"x\",\"sku\":\"s\",\"sku_alias\":\"s\",\"nnodes\":1,\"ppn\":1,\"input_desc\":\"\",\"exectime_sec\":1,\"cost_usd\":1,\"utilization\":{\"cpu_util\":0,\"membw_util\":0,\"net_util\":0},\"collected_at\":0}\n\n"
	s, err := Unmarshal([]byte(good))
	if err != nil || s.Len() != 1 {
		t.Fatalf("good parse: %v len=%d", err, s.Len())
	}
	if _, err := Unmarshal([]byte("{\"x\": }\n")); err == nil {
		t.Error("garbage should fail")
	}
}

// Property: filters never return points that fail Match, and Select is a
// subset of All.
func TestPropertyFilterSoundness(t *testing.T) {
	s := populated()
	f := func(minN, maxN uint8, includeFailed bool) bool {
		filter := Filter{MinNodes: int(minN % 20), MaxNodes: int(maxN % 20), IncludeFailed: includeFailed}
		selected := s.Select(filter)
		if len(selected) > s.Len() {
			return false
		}
		for _, p := range selected {
			if !filter.Match(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

//
// Unmarshal / LoadFile error paths
//

func TestUnmarshalTruncatedFinalLine(t *testing.T) {
	s := populated()
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record mid-JSON: a torn tail from a crashed writer.
	torn := data[:len(data)-20]
	if _, err := Unmarshal(torn); err == nil {
		t.Fatal("truncated final line should fail to parse")
	} else if !strings.Contains(err.Error(), "line 6") {
		t.Errorf("error should name the offending line, got %v", err)
	}
}

func TestUnmarshalOversizedLineVsScannerCap(t *testing.T) {
	// One line just under the 16MB scanner cap parses; one over it errors
	// (bufio.ErrTooLong) instead of silently splitting the record.
	big := samplePoint("Standard_HB120rs_v3", "hb120rs_v3", 2, 10, 0.1)
	big.Metrics = map[string]string{"BLOB": strings.Repeat("x", 1<<20)}
	s := NewStore()
	s.Add(big)
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatalf("1MB line should parse: %v", err)
	}

	over := []byte(`{"scenario_id":"huge","metrics":{"BLOB":"` + strings.Repeat("y", 16*1024*1024) + `"}}` + "\n")
	if _, err := Unmarshal(over); err == nil {
		t.Fatal("a line beyond the 16MB cap must error, not truncate")
	} else if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("want bufio.ErrTooLong, got %v", err)
	}
}

func TestLoadFileEmptyAndMissingSemantics(t *testing.T) {
	dir := t.TempDir()

	// Missing file: a fresh environment starts with an empty store.
	missing, err := LoadFile(filepath.Join(dir, "nope.jsonl"))
	if err != nil || missing.Len() != 0 {
		t.Fatalf("missing file: len=%d err=%v", missing.Len(), err)
	}

	// Empty file: also an empty store, not an error.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadFile(empty)
	if err != nil || st.Len() != 0 {
		t.Fatalf("empty file: len=%d err=%v", st.Len(), err)
	}

	// Whitespace-only file: same.
	blank := filepath.Join(dir, "blank.jsonl")
	if err := os.WriteFile(blank, []byte("\n\n  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = LoadFile(blank)
	if err != nil || st.Len() != 0 {
		t.Fatalf("blank file: len=%d err=%v", st.Len(), err)
	}

	// A directory at the path is an error, not an empty store.
	if _, err := LoadFile(dir); err == nil {
		t.Error("loading a directory should error")
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dataset.jsonl")
	s := populated()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil { // overwrite in place
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("save must leave no staging files, dir has %d entries", len(entries))
	}
	loaded, err := LoadFile(path)
	if err != nil || loaded.Len() != s.Len() {
		t.Fatalf("reload: len=%d err=%v", loaded.Len(), err)
	}
}

//
// Append-through sink
//

// recordingSink captures appends and syncs; failAfter > 0 makes Append
// start failing after that many points.
type recordingSink struct {
	appended  []Point
	syncs     int
	failAfter int
}

func (r *recordingSink) Append(p Point) error {
	if r.failAfter > 0 && len(r.appended) >= r.failAfter {
		return errors.New("sink full")
	}
	r.appended = append(r.appended, p)
	return nil
}

func (r *recordingSink) Sync() error {
	r.syncs++
	return nil
}

func TestStoreAttachWritesThroughInOrder(t *testing.T) {
	sink := &recordingSink{}
	s := NewStore()
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 1, 5, 0.1)) // before attach: not replayed
	s.Attach(sink)
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 2, 6, 0.2))
	s.AddAll([]Point{
		samplePoint("Standard_HC44rs", "hc44rs", 4, 7, 0.3),
		samplePoint("Standard_HC44rs", "hc44rs", 8, 8, 0.4),
	})
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sink.syncs != 1 {
		t.Errorf("Flush should sync the sink once, got %d", sink.syncs)
	}
	if len(sink.appended) != 3 {
		t.Fatalf("sink saw %d points, want 3 (pre-attach point not replayed)", len(sink.appended))
	}
	for i, want := range []int{2, 4, 8} {
		if sink.appended[i].NNodes != want {
			t.Errorf("sink order [%d] = %d nodes, want %d", i, sink.appended[i].NNodes, want)
		}
	}
	// Detach: appends stop flowing through.
	s.Attach(nil)
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 16, 9, 0.5))
	if len(sink.appended) != 3 {
		t.Errorf("detached sink still saw appends")
	}
}

func TestStoreFlushSurfacesStickySinkError(t *testing.T) {
	sink := &recordingSink{failAfter: 1}
	s := NewStore()
	s.Attach(sink)
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 1, 5, 0.1))
	s.Add(samplePoint("Standard_HC44rs", "hc44rs", 2, 6, 0.2)) // sink rejects
	if err := s.Flush(); err == nil {
		t.Fatal("Flush must surface the write-through failure")
	}
	// The store itself still holds both points (memory is the source of
	// truth for queries; durability errors are the caller's to handle).
	if s.Len() != 2 {
		t.Errorf("store len = %d, want 2", s.Len())
	}
}

func TestStoreConcurrentAddAndRead(t *testing.T) {
	// Store itself must tolerate concurrent appends and reads (progress
	// callbacks and the GUI read while collection appends). Run with -race.
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(Point{ScenarioID: fmt.Sprintf("w%d-%d", w, i), AppName: "lammps"})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Len()
				_ = s.Select(Filter{AppName: "lammps"})
				_ = s.Apps()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
	if _, err := s.Marshal(); err != nil {
		t.Fatal(err)
	}
}
