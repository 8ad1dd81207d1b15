package storage

// Compaction's output is pinned byte for byte: each seeded store below
// compacts to a snapshot file whose SHA-256 was recorded when compaction
// still decoded, re-sorted and re-marshalled every row, so the merge that
// replaced it must write exactly the same bytes.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
)

// compactPoint draws one point for the pinned stores. Times and costs come
// from small grids, so exact (time, cost) ties are common; one alias
// differs from another only in case; about one point in nine failed. A
// tail point (tail=true) may also carry an app, a SKU and an input that no
// base point holds.
func compactPoint(rng *rand.Rand, id string, tail bool) dataset.Point {
	skus := [][2]string{
		{"Standard_HB120rs_v3", "HB120rs_v3"},
		{"Standard_HB120rs_v3", "hb120rs_v3"}, // the same alias, another case
		{"Standard_HC44rs", "hc44rs"},
		{"Standard_HB120rs_v2", "hb120rs_v2"},
	}
	apps := []string{"lammps", "wrf"}
	inputs := []string{"atoms=1M", "atoms=8M"}
	if tail {
		skus = append(skus, [2]string{"Standard_NP10s", "np10s"})
		apps = append(apps, "namd")
		inputs = append(inputs, "fresh=1")
	}
	sku := skus[rng.Intn(len(skus))]
	input := inputs[rng.Intn(len(inputs))]
	p := dataset.Point{
		ScenarioID:  id,
		Deployment:  "pin-deploy",
		AppName:     apps[rng.Intn(len(apps))],
		SKU:         sku[0],
		SKUAlias:    sku[1],
		NNodes:      1 << rng.Intn(5),
		PPN:         16,
		AppInput:    map[string]string{"INPUT": input},
		InputDesc:   input,
		Tags:        map[string]string{"sweep": fmt.Sprint("s", rng.Intn(3))},
		ExecTimeSec: 10.5 * float64(1+rng.Intn(12)),
		CostUSD:     0.25 * float64(1+rng.Intn(8)),
		Metrics:     map[string]string{"steps": fmt.Sprint(rng.Intn(1000))},
		Utilization: monitor.Sample{CPUUtil: float64(rng.Intn(100)) / 100, MemBWUtil: 0.5, NetUtil: 0.25},
		Bottleneck:  monitor.BottleneckCPU,
		CollectedAt: float64(rng.Intn(100000)) / 8,
	}
	if rng.Intn(9) == 0 {
		p.Failed, p.Error = true, "simulated failure"
		p.ExecTimeSec, p.CostUSD = 0, 0
	}
	return p
}

func compactPoints(seed int64, prefix string, n int, tail bool) []dataset.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset.Point, n)
	for i := range out {
		out[i] = compactPoint(rng, fmt.Sprintf("%s%05d", prefix, i), tail)
	}
	return out
}

// appendAndClose appends pts to the segment store at dir with one fsync.
func appendAndClose(tb testing.TB, dir string, pts []dataset.Point) {
	tb.Helper()
	seg, err := OpenSegments(dir, &SegmentOptions{SyncEvery: len(pts) + 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range pts {
		if err := seg.Append(pts[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		tb.Fatal(err)
	}
}

// compactDir opens the segment store at dir, compacts it and closes it.
func compactDir(tb testing.TB, dir string) {
	tb.Helper()
	seg, err := OpenSegments(dir, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := seg.Compact(); err != nil {
		tb.Fatalf("Compact: %v", err)
	}
	if err := seg.Close(); err != nil {
		tb.Fatal(err)
	}
}

// snapshotFile returns the path of dir's one snapshot segment.
func snapshotFile(tb testing.TB, dir string) string {
	tb.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.seg"))
	if err != nil || len(matches) != 1 {
		tb.Fatalf("want exactly one snapshot segment, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestCompactOutputIsPinned(t *testing.T) {
	base := compactPoints(1, "b", 2600, false)
	tail := compactPoints(2, "t", 300, true)
	for _, tc := range []struct {
		name  string
		build func(dir string)
		want  string
	}{
		{"wal-only", func(dir string) {
			appendAndClose(t, dir, append(append([]dataset.Point(nil), base...), tail...))
		}, "e4c15dc07ddd16503177c0ee523487ccd89900067e66c3bd59d88270b5e323eb"},
		{"wal-only-small", func(dir string) { // below the fold rule's floor
			appendAndClose(t, dir, tail)
		}, "39671567833d52c634939ecc1214dee5e145c609906bfafbb7ef99a554267ca6"},
		{"v2-base+tail", func(dir string) {
			appendAndClose(t, dir, base)
			compactDir(t, dir)
			appendAndClose(t, dir, tail)
		}, "c110145427bc70722000b402ab936cd2dc7bab94ee784feb033dc10cc7b7f247"},
		{"damaged-v2-base+tail", func(dir string) { // the row rebuild heals the columns
			appendAndClose(t, dir, base)
			compactDir(t, dir)
			flipByteInSection(t, snapshotFile(t, dir), secColExec)
			appendAndClose(t, dir, tail)
		}, "c110145427bc70722000b402ab936cd2dc7bab94ee784feb033dc10cc7b7f247"}, // the v2 case's bytes
		{"v1-base+tail", func(dir string) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshotSegmentV1(filepath.Join(dir, snapName(1)), 1, base, canonicalOrder(base)); err != nil {
				t.Fatal(err)
			}
			appendAndClose(t, dir, tail)
		}, "c110145427bc70722000b402ab936cd2dc7bab94ee784feb033dc10cc7b7f247"}, // the v2 case's bytes
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data.seg")
			tc.build(dir)
			compactDir(t, dir)
			data, err := os.ReadFile(snapshotFile(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("compacted snapshot sha256 %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkCompact times one compaction of a 50k-point store (Compact
// plus Close; the open is untimed): wal-only compacts a store whose
// points are all in its write-ahead log, the shape a fresh collection
// compacts; mapped-base+40 compacts a v2 snapshot of 50k points plus a
// 40-point WAL tail. Each op compacts a fresh copy of the store.
func BenchmarkCompact(b *testing.B) {
	const n = 50_000
	pts := compactPoints(1, "p", n+40, true)
	walOnly := filepath.Join(b.TempDir(), "wal.seg")
	appendAndClose(b, walOnly, pts[:n])
	mapped := filepath.Join(b.TempDir(), "mapped.seg")
	appendAndClose(b, mapped, pts[:n])
	compactDir(b, mapped)
	appendAndClose(b, mapped, pts[n:])

	for _, tc := range []struct{ name, dir string }{
		{"wal-only", walOnly},
		{"mapped-base+40", mapped},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "copy.seg")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyDir(b, tc.dir, dir)
				seg, err := OpenSegments(dir, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := seg.Compact(); err != nil {
					b.Fatal(err)
				}
				if err := seg.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// copyDir replaces dst with a copy of the regular files of src.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := os.RemoveAll(dst); err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}
