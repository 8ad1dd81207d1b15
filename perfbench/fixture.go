package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"hpcadvisor/internal/dataset"
)

// sweepConfig is the paper's Listing 1: a three-SKU LAMMPS sweep. The seed
// only names the resource group, so every seed collects the same 18
// scenarios under a different deployment name.
func sweepConfig(seed int64) string {
	return fmt.Sprintf(`subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: bench%x
nnodes: [1, 2, 3, 4, 8, 16]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "30"
`, uint64(seed))
}

// fixturePoints is the size of the serving fixture.
const fixturePoints = 50000

var (
	synthApps   = []string{"lammps", "openfoam", "wrf", "gromacs"}
	synthSKUs   = [][2]string{{"Standard_HB120rs_v3", "hb120rs_v3"}, {"Standard_HB120rs_v2", "hb120rs_v2"}, {"Standard_HC44rs", "hc44rs"}, {"Standard_D32s_v5", "d32s_v5"}}
	synthPrice  = []float64{3.6, 3.6, 3.17, 1.54} // USD per node-hour
	synthInputs = []string{"size=small", "size=medium", "size=large", "size=xlarge"}
	synthNodes  = []int{1, 2, 3, 4, 6, 8, 12, 16}
	// boundValues are the minnodes/maxnodes values serve-wide queries use;
	// 0 leaves the bound off.
	boundValues = []int{0, 1, 2, 3, 4, 6, 8, 12, 16}
)

// pointGen draws synthetic sweep results shaped like collected ones:
// execution time falls with node count at an input- and app-dependent
// rate, and cost follows node-hours at the SKU's price.
type pointGen struct {
	rng *rand.Rand
	tag string
	n   int
}

func newPointGen(seed int64, tag string) *pointGen {
	return &pointGen{rng: rand.New(rand.NewSource(seed)), tag: tag}
}

func (g *pointGen) next() dataset.Point {
	r := g.rng
	a, s, in := r.Intn(len(synthApps)), r.Intn(len(synthSKUs)), r.Intn(len(synthInputs))
	nodes := synthNodes[r.Intn(len(synthNodes))]
	base := 300 * float64(in+1) * (1 + 0.3*float64(a))
	exec := base / math.Pow(float64(nodes), 0.55+0.1*float64(s)) * (0.8 + 0.4*r.Float64())
	p := dataset.Point{
		ScenarioID:  fmt.Sprintf("%s-%07d", g.tag, g.n),
		AppName:     synthApps[a],
		SKU:         synthSKUs[s][0],
		SKUAlias:    synthSKUs[s][1],
		NNodes:      nodes,
		PPN:         100,
		InputDesc:   synthInputs[in],
		ExecTimeSec: math.Round(exec*100) / 100,
		CostUSD:     math.Round(exec/3600*float64(nodes)*synthPrice[s]*1e4) / 1e4,
		CollectedAt: float64(g.n),
	}
	if r.Intn(100) == 0 {
		p.Failed, p.Error, p.ExecTimeSec, p.CostUSD = true, "simulated node failure", 0, 0
	}
	g.n++
	return p
}

func (g *pointGen) take(n int) []dataset.Point {
	out := make([]dataset.Point, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// wideQueries is serve-wide's request stream over every app x sku x input
// x node-bound x sort combination: 23850 queries, over 20 times the
// 512-entry body cache and engine LRU. The stream is stratified so that
// every run sees the same mix of cheap and expensive filters: each block
// of 225 requests visits every (app, sku, input) filter once, in a seeded
// order, and each filter takes its node bounds and sort from its own
// seeded permutation, so no query repeats before the whole space is used.
func wideQueries(seed int64) []string {
	apps := append([]string{""}, synthApps...)
	skus := []string{""}
	for _, s := range synthSKUs {
		skus = append(skus, s[1], s[0])
	}
	inputs := append([]string{""}, synthInputs...)
	type variant struct {
		lo, hi int
		sort   string
	}
	var variants []variant
	for _, lo := range boundValues {
		for _, hi := range boundValues {
			if lo > 0 && hi > 0 && lo > hi {
				continue
			}
			variants = append(variants, variant{lo, hi, "time"}, variant{lo, hi, "cost"})
		}
	}
	var filters [][3]string
	for _, app := range apps {
		for _, sku := range skus {
			for _, in := range inputs {
				filters = append(filters, [3]string{app, sku, in})
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	perVariant := make([][]int, len(filters))
	for f := range filters {
		perVariant[f] = r.Perm(len(variants))
	}
	out := make([]string, 0, len(filters)*len(variants))
	for block := range variants {
		for _, f := range r.Perm(len(filters)) {
			v := variants[perVariant[f][block]]
			q := url.Values{}
			setIf(q, "app", filters[f][0])
			setIf(q, "sku", filters[f][1])
			setIf(q, "input", filters[f][2])
			if v.lo > 0 {
				q.Set("minnodes", strconv.Itoa(v.lo))
			}
			if v.hi > 0 {
				q.Set("maxnodes", strconv.Itoa(v.hi))
			}
			q.Set("sort", v.sort)
			out = append(out, q.Encode())
		}
	}
	return out
}

func setIf(q url.Values, k, v string) {
	if v != "" {
		q.Set(k, v)
	}
}

// liveOp is one serve-live request.
type liveOp struct {
	kind  int    // opAdvice, opRevalidate or opSVG
	query string // raw query string
}

const (
	opAdvice = iota
	opRevalidate
	opSVG
)

// liveOps is serve-live's request stream. It repeats the reads of
// examples/api_server, the repository's API client, in their order: one
// advice request, two If-None-Match revalidations, one pareto.svg. So half
// the requests are revalidations, a quarter advice and a quarter plots.
// Each session draws its advice query from the hot single-field filters
// (either sort), which have precomputed fronts, and its plot from two
// filtered views of about 800 points each; the example plots its whole
// 18-point sweep, which at 50k points would be a 50k-point SVG.
func liveOps(seed int64, n int) []liveOp {
	var hot []string
	for _, sort := range []string{"time", "cost"} {
		hot = append(hot, "sort="+sort)
		for _, a := range synthApps {
			hot = append(hot, url.Values{"app": {a}, "sort": {sort}}.Encode())
		}
		for _, s := range synthSKUs {
			hot = append(hot, url.Values{"sku": {s[1]}, "sort": {sort}}.Encode())
		}
		for _, in := range synthInputs {
			hot = append(hot, url.Values{"input": {in}, "sort": {sort}}.Encode())
		}
	}
	svgs := []string{
		url.Values{"app": {"lammps"}, "sku": {"hb120rs_v3"}, "input": {"size=large"}}.Encode(),
		url.Values{"app": {"wrf"}, "sku": {"hc44rs"}, "input": {"size=small"}}.Encode(),
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]liveOp, 0, n+3)
	for len(out) < n {
		q := hot[r.Intn(len(hot))]
		out = append(out, liveOp{opAdvice, q}, liveOp{opRevalidate, q}, liveOp{opRevalidate, q},
			liveOp{opSVG, svgs[r.Intn(len(svgs))]})
	}
	return out[:n]
}
