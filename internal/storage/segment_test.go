package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
)

// point fabricates a realistic datapoint; i varies every identifying field
// so ordering and identity bugs cannot hide.
func point(i int) dataset.Point {
	skus := []string{"Standard_HB120rs_v3", "Standard_HC44rs", "Standard_F72s_v2"}
	aliases := []string{"hb120v3", "hc44", "f72"}
	nodes := []int{1, 2, 4, 8}
	p := dataset.Point{
		ScenarioID: fmt.Sprintf("lammps-n%03d", i),
		Deployment: "test-deploy",
		AppName:    "lammps",
		SKU:        skus[i%len(skus)],
		SKUAlias:   aliases[i%len(aliases)],
		NNodes:     nodes[i%len(nodes)],
		PPN:        16,
		AppInput:   map[string]string{"BOXFACTOR": fmt.Sprint(10 + i%3)},
		InputDesc:  fmt.Sprintf("BOXFACTOR=%d", 10+i%3),
		Tags:       map[string]string{"sweep": "t1"},

		ExecTimeSec: 100.5 / float64(1+i%7),
		CostUSD:     0.125 * float64(1+i%5),
		Metrics:     map[string]string{"steps": fmt.Sprint(i * 100)},
		Utilization: monitor.Sample{CPUUtil: float64(50+i%50) / 100, MemBWUtil: 0.5, NetUtil: 0.25},
		CollectedAt: float64(1000 + i),
	}
	if i%11 == 10 {
		p.Failed = true
		p.Error = "simulated failure"
		p.ExecTimeSec, p.CostUSD = 0, 0
	}
	return p
}

func points(n int) []dataset.Point {
	out := make([]dataset.Point, n)
	for i := range out {
		out[i] = point(i)
	}
	return out
}

// marshalOf renders points the way Store.Marshal does, the round-trip
// equality oracle used throughout.
func marshalOf(t *testing.T, pts []dataset.Point) []byte {
	t.Helper()
	st := dataset.NewStore()
	st.AddAll(pts)
	data, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func appendAll(t *testing.T, b *SegmentStore, pts []dataset.Point) {
	t.Helper()
	for i := range pts {
		if err := b.Append(pts[i]); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
	}
}

func loadMarshal(t *testing.T, b *SegmentStore) []byte {
	t.Helper()
	st, err := b.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	data, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSegmentAppendReopenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(100)
	want := marshalOf(t, pts)

	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts)
	if got := loadMarshal(t, s); !bytes.Equal(got, want) {
		t.Fatal("in-session Load does not round-trip")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := loadMarshal(t, s2); !bytes.Equal(got, want) {
		t.Fatal("reopened Load does not round-trip")
	}
	info, err := s2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != len(pts) || info.Recovered {
		t.Fatalf("info = %+v, want %d points and no recovery", info, len(pts))
	}
}

// Only a segment's canonical name is a segment. A stray file whose name
// parses to a seq the store already has (wal-1.seg, wal-01.seg, an
// upper-case hex digit) must not read as a second copy of that segment,
// and one whose name only starts like a segment's (wal-12zz.seg,
// snapshot-1.seg) must not send the open to a canonical name that does not
// exist. The store opens with exactly its own points, and
// ParseSegmentName rejects every stray name.
func TestOpenIgnoresNonCanonicalSegmentNames(t *testing.T) {
	pts := points(3)
	want := marshalOf(t, pts)
	for _, stray := range []string{"wal-1.seg", "wal-01.seg", "wal-000000000000000A.seg", "wal-12zz.seg", "snapshot-1.seg"} {
		dir := filepath.Join(t.TempDir(), "data.seg")
		s, err := OpenSegments(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, s, pts)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, walName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stray), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := ParseSegmentName(stray); ok {
			t.Errorf("ParseSegmentName(%q) accepts a non-canonical name", stray)
		}
		s, err = OpenSegments(dir, nil)
		if err != nil {
			t.Fatalf("open beside %s: %v", stray, err)
		}
		info, err := s.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Points != len(pts) {
			t.Errorf("beside %s: Info().Points = %d, want %d", stray, info.Points, len(pts))
		}
		if got := loadMarshal(t, s); !bytes.Equal(got, want) {
			t.Errorf("beside %s: Load does not return exactly the appended points", stray)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentSealingRollsSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	// Tiny segments force many seals.
	s, err := OpenSegments(dir, &SegmentOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	pts := points(60)
	want := marshalOf(t, pts)
	appendAll(t, s, pts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected several sealed segments, found %d", segs)
	}

	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := loadMarshal(t, s2); !bytes.Equal(got, want) {
		t.Fatal("multi-segment Load does not round-trip")
	}
}

func TestCompactionFoldsSegmentsAndPreservesOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	s, err := OpenSegments(dir, &SegmentOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	first := points(50)
	appendAll(t, s, first)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	// Append more after compaction; the snapshot covers only the prefix.
	var second []dataset.Point
	for i := 50; i < 80; i++ {
		second = append(second, point(i))
	}
	appendAll(t, s, second)
	all := append(append([]dataset.Point{}, first...), second...)
	want := marshalOf(t, all)
	if got := loadMarshal(t, s); !bytes.Equal(got, want) {
		t.Fatal("post-compaction Load does not preserve append order")
	}

	info, err := s.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotPoints != 50 {
		t.Fatalf("snapshot should cover 50 points, info = %+v", info)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify queries against an in-memory reference store.
	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := dataset.NewStore()
	ref.AddAll(all)
	for _, f := range []dataset.Filter{
		{},
		{AppName: "lammps"},
		{SKU: "hc44"},
		{SKU: "Standard_F72s_v2", MaxNodes: 4},
		{IncludeFailed: true},
	} {
		got, wantSel := st.Select(f), ref.Select(f)
		if len(got) != len(wantSel) {
			t.Fatalf("Select(%+v): %d points, want %d", f, len(got), len(wantSel))
		}
		for i := range got {
			if got[i].ScenarioID != wantSel[i].ScenarioID || got[i].CollectedAt != wantSel[i].CollectedAt {
				t.Fatalf("Select(%+v)[%d] = %s@%v, want %s@%v", f, i,
					got[i].ScenarioID, got[i].CollectedAt, wantSel[i].ScenarioID, wantSel[i].CollectedAt)
			}
		}
	}
}

func TestCompactionIsIdempotentAndSingleSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := points(30)
	want := marshalOf(t, pts)
	appendAll(t, s, pts)
	for i := 0; i < 3; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact #%d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, wals := 0, 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		switch {
		case len(e.Name()) > 9 && e.Name()[:9] == "snapshot-":
			snaps++
		case len(e.Name()) > 4 && e.Name()[:4] == "wal-":
			wals++
		}
	}
	if snaps != 1 || wals != 0 {
		t.Fatalf("after compaction: %d snapshots, %d wal segments; want 1, 0", snaps, wals)
	}

	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := loadMarshal(t, s2); !bytes.Equal(got, want) {
		t.Fatal("compacted store does not round-trip")
	}
}

func TestSegmentInfoEmptyAndLazyCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created.seg")
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil || st.Len() != 0 {
		t.Fatalf("empty load = %d points, %v", st.Len(), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Read-only use must not create the directory.
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("read-only open created %s", dir)
	}
}
