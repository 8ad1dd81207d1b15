package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperFiguresPinned pins the bytes of the five figures repro writes
// from the LAMMPS sweep (the paper's Figures 2-6): each SVG and its series
// text. A change to the sweep, the plot builders or the renderer that moves
// one byte of a figure fails here.
func TestPaperFiguresPinned(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"figure2_exectime_vs_nodes.svg": "cf7d39fd98549599525b512ff370119b1cb2fac2614cf12c4588bef37c9e20f3",
		"figure2_exectime_vs_nodes.txt": "240c75e829b0c01b84b61aee320b7006eeb176f84d6d8e5593bbe2ae9e539e3f",
		"figure3_exectime_vs_cost.svg":  "88e875cf9d9e67284cecd3882048483a6d140c75202691f25bf022f5b5847f78",
		"figure3_exectime_vs_cost.txt":  "2b3f324f47937a077dddbc6ecdc75d4f50e7f55fd11be6c8d3929e61eb4cd025",
		"figure4_speedup.svg":           "0ef6de1f62a2ed30124d33a361d82994b7da1a4b32d98ca3be87eec4f53f8749",
		"figure4_speedup.txt":           "fde131bc8f5fe74307458a608035775f26eb72498776f59a89b2a143dc385266",
		"figure5_efficiency.svg":        "0f66d0e544f10be9cf61727fc778500182dae06d6b4f892b848bb881de5b4e6d",
		"figure5_efficiency.txt":        "24f24cb154604f1e7a5cfd610ead35d97cbab76929ea9378dec652b624925431",
		"figure6_pareto.svg":            "099d2b4a02f795c6863fabaa19b008992b61a1e7032b1a5a45d98b4ba0f4ffef",
		"figure6_pareto.txt":            "f364305215f85d2f93c34289be21a411c10529aa2d8647999552c5974f1c9a11",
	}
	for name, sum := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got := sha256.Sum256(b)
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", name, got, sum)
		}
	}
}
