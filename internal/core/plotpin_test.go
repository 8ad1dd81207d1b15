package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
)

// TestWritePlotsSVGPinsOneSnapshot is the regression test for plot sets
// written across generations: a writer appends points while the plot set is
// written, and the five files on disk must be exactly the five renders of a
// single snapshot. Each append adds a new fastest point at a new node
// count, so it changes every plot; a writer that fetched a fresh snapshot
// per file would mix generations whenever an append lands between two of
// its five renders. Run with -race.
func TestWritePlotsSVGPinsOneSnapshot(t *testing.T) {
	f := dataset.Filter{AppName: "lammps"}
	cases := []struct {
		name  string
		write func(a *Advisor, dir string) ([]string, error)
		set   func(a *Advisor, sn *dataset.Snapshot) plot.Set
	}{
		{
			name:  "measured",
			write: func(a *Advisor, dir string) ([]string, error) { return a.WritePlotsSVG(dir, f) },
			set:   func(_ *Advisor, sn *dataset.Snapshot) plot.Set { return plot.BuildSet(sn.Select(f)) },
		},
		{
			name: "predicted",
			write: func(a *Advisor, dir string) ([]string, error) {
				return a.WritePredictedPlotsSVG(dir, f, a.PredictorConfig("southcentralus", nil))
			},
			set: func(a *Advisor, sn *dataset.Snapshot) plot.Set {
				pts := sn.Select(f)
				return predictor.Overlay(plot.BuildSet(pts), pts, a.PredictorConfig("southcentralus", nil))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				adv := New("mysubscription")
				for n := 1; n <= 8; n *= 2 {
					adv.Store.Add(pinPoint(fmt.Sprintf("base-%d", n), n, 1000/float64(n)))
				}
				snaps := []*dataset.Snapshot{adv.Store.Snapshot()}

				// The appender records the snapshot after each of its
				// appends; it is the only writer, so every generation the
				// plot writer can observe is in snaps.
				done := make(chan struct{})
				started := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						adv.Store.Add(pinPoint(fmt.Sprintf("live-%d", i), 16+i, 100/float64(i+1)))
						snaps = append(snaps, adv.Store.Snapshot())
						if i == 0 {
							close(started)
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}()
				<-started
				dir := t.TempDir()
				paths, err := tc.write(adv, dir)
				close(done)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				files := make([][]byte, len(paths))
				for i, p := range paths {
					if filepath.Base(p) != plot.SetNames[i]+".svg" {
						t.Fatalf("unexpected file order: %v", paths)
					}
					if files[i], err = os.ReadFile(p); err != nil {
						t.Fatal(err)
					}
				}
				if !oneSnapshotRenders(adv, snaps, files, tc.set) {
					t.Fatalf("round %d: the %d files written match the renders of none of %d snapshots (mixed generations)",
						round, len(files), len(snaps))
				}
			}
		})
	}
}

// oneSnapshotRenders reports whether some snapshot in snaps renders exactly
// files, in plot.SetNames order.
func oneSnapshotRenders(a *Advisor, snaps []*dataset.Snapshot, files [][]byte, set func(*Advisor, *dataset.Snapshot) plot.Set) bool {
	for _, sn := range snaps {
		s := set(a, sn)
		match := true
		for i, name := range plot.SetNames {
			p, _ := s.ByName(name)
			if !bytes.Equal(plot.RenderSVG(p), files[i]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func pinPoint(id string, nodes int, sec float64) dataset.Point {
	return dataset.Point{
		ScenarioID: id, AppName: "lammps",
		SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3",
		NNodes: nodes, PPN: 120, InputDesc: "atoms=864M",
		ExecTimeSec: sec, CostUSD: float64(nodes) * sec * 3.6 / 3600,
	}
}
