package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// closureReroute is the reference the priced kernel is held to: opt's
// retained reroute (reference.go) word for word — activeExcept as a fresh
// table, the current route's edges in a map, both prices as closures —
// run through ShortestPathInto.
func closureReroute(g *Graph, demands []Demand, cfg EvalConfig, d *Design, i, forbidden int, penalty float64) ([]int, float64) {
	pkts := cfg.PacketsPerDemand
	if pkts == 0 {
		pkts = 1
	}
	if demands[i].Rate > 0 {
		pkts *= demands[i].Rate
	}
	var onCurrent map[[2]int]bool
	if r := d.Routes[i]; penalty > 1 && r != nil {
		onCurrent = make(map[[2]int]bool)
		for j := 0; j+1 < len(r); j++ {
			onCurrent[[2]int{min(r[j], r[j+1]), max(r[j], r[j+1])}] = true
		}
	}
	act := make([]bool, g.Len())
	for k, r := range d.Routes {
		if k == i {
			continue
		}
		for _, v := range r {
			act[v] = true
		}
	}
	for _, dm := range demands {
		act[dm.Src], act[dm.Dst] = true, true
	}
	edgeCost := func(u, v int, w float64) float64 {
		c := pkts * cfg.TData * w
		if onCurrent[[2]int{min(u, v), max(u, v)}] {
			c *= penalty
		}
		return c
	}
	nodeCost := func(v int) float64 {
		if v == forbidden {
			return math.Inf(1)
		}
		if act[v] {
			return 0
		}
		return cfg.TIdle * g.NodeWeight(v)
	}
	return g.ShortestPathInto(new(SPScratch), demands[i].Src, demands[i].Dst, edgeCost, nodeCost, nil)
}

// pricedInstance is one graph with an installed design to reroute within.
type pricedInstance struct {
	name    string
	g       *Graph
	demands []Demand
	design  *Design
}

func pricedInstances() []pricedInstance {
	var out []pricedInstance
	rng := rand.New(rand.NewPCG(18, 1))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 8+rng.IntN(30)) // parallel edges, small integer weights
		var demands []Demand
		for len(demands) < 2+rng.IntN(5) {
			demands = append(demands, Demand{Src: rng.IntN(g.Len()), Dst: rng.IntN(g.Len()), Rate: float64(rng.IntN(3))})
		}
		out = append(out, pricedInstance{fmt.Sprintf("random-%d", trial), g, demands, randomDesign(g, demands, rng)})
	}

	// Real weights: ties are rare, so a guided run keeps its result.
	for trial := 0; trial < 6; trial++ {
		g := realGraph(rng, 20+rng.IntN(40))
		var demands []Demand
		for len(demands) < 2+rng.IntN(5) {
			demands = append(demands, Demand{Src: rng.IntN(g.Len()), Dst: rng.IntN(g.Len()), Rate: rng.Float64() * 3})
		}
		out = append(out, pricedInstance{fmt.Sprintf("real-%d", trial), g, demands, randomDesign(g, demands, rng)})
	}

	// Unit-weight grid, unit node weights: every node has exact ties.
	grid := unitGrid(6)
	gd := []Demand{{Src: 0, Dst: 35}, {Src: 5, Dst: 30}, {Src: 2, Dst: 33, Rate: 2}, {Src: 14, Dst: 14}}
	out = append(out, pricedInstance{"grid", grid, gd, &Design{Routes: [][]int{
		{0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35},
		{5, 4, 10, 16, 22, 21, 27, 26, 25, 24, 30},
		{2, 8, 14, 20, 26, 32, 33},
		{14},
	}}})

	// Parallel edges of different weight, zero-weight edges, a cut vertex
	// (3), a component nobody reaches (7-8), and a route that visits node 1
	// twice (0 1 2 1 3).
	w := NewGraph(9)
	for v := 0; v < 9; v++ {
		w.SetNodeWeight(v, float64(v%3))
	}
	for _, e := range []struct {
		u, v int
		w    float64
	}{
		{0, 1, 2}, {0, 1, 1}, {1, 0, 3}, {1, 2, 0}, {2, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1},
		{3, 4, 0}, {3, 5, 2}, {4, 5, 0}, {5, 6, 1}, {4, 6, 1}, {4, 6, 1}, {7, 8, 1},
	} {
		w.AddEdge(e.u, e.v, e.w)
	}
	wd := []Demand{{Src: 0, Dst: 3}, {Src: 0, Dst: 6, Rate: 3}, {Src: 2, Dst: 5}, {Src: 4, Dst: 7}, {Src: 6, Dst: 6}}
	out = append(out, pricedInstance{"wrinkles", w, wd, &Design{Routes: [][]int{
		{0, 1, 2, 1, 3}, {0, 2, 3, 4, 6}, {2, 3, 5}, nil, {6},
	}}})
	return out
}

// realGraph is randomGraph with real edge and node weights: a spanning
// tree plus random chords, parallel edges possible.
func realGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetNodeWeight(v, rng.Float64()*4)
	}
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.IntN(v), 0.1+rng.Float64())
	}
	for k := 0; k < 2*n; k++ {
		if u, v := rng.IntN(n), rng.IntN(n); u != v {
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
	}
	return g
}

// unitGrid is the side×side grid with unit edge and node weights: every
// node has exact ties.
func unitGrid(side int) *Graph {
	g := NewGraph(side * side)
	for v := 0; v < side*side; v++ {
		g.SetNodeWeight(v, 1)
		if v%side+1 < side {
			g.AddEdge(v, v+1, 1)
		}
		if v+side < side*side {
			g.AddEdge(v, v+side, 1)
		}
	}
	return g
}

// TestPricedPathMatchesClosures is the core-level half of determinism
// contract entry 9: for every demand of every instance, every forbidden
// node (and none) and penalties of 1 and above, Ledger.Reroute — guided
// toward the destination — returns the path and the Float64bits-equal cost
// of the same reroute run unguided and of the closure kernel pricing it,
// and leaves the ledger as it found it. The guided run must fall back on
// the unit grid, where ties are everywhere, and keep its own result on the
// real-weight instances, so neither half of the guide can go dark unseen.
func TestPricedPathMatchesClosures(t *testing.T) {
	for _, in := range pricedInstances() {
		t.Run(in.name, func(t *testing.T) {
			cfg := EvalConfig{TIdle: 1.7, TData: 0.3}
			l := in.g.NewLedger(in.demands, cfg)
			l.Reset(in.design)
			plain := in.g.NewLedger(in.demands, cfg)
			plain.Reset(in.design)
			plain.unguided = true
			fresh := in.g.NewLedger(in.demands, cfg)
			fresh.Reset(in.design)
			var buf, plainBuf []int
			for i, dm := range in.demands {
				for forbidden := -1; forbidden < in.g.Len(); forbidden++ {
					for _, penalty := range []float64{1, 2.5, 7.999} {
						want, wantCost := closureReroute(in.g, in.demands, cfg, in.design, i, forbidden, penalty)
						scale := l.Pkts(i) * cfg.TData
						var got, unguided []int
						got, cost := l.Reroute(dm.Src, dm.Dst, in.design.Routes[i], scale, penalty, forbidden, buf)
						buf = got
						unguided, plainCost := plain.Reroute(dm.Src, dm.Dst, in.design.Routes[i], scale, penalty, forbidden, plainBuf)
						plainBuf = unguided
						if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) ||
							math.Float64bits(plainCost) != math.Float64bits(wantCost) || fmt.Sprint(unguided) != fmt.Sprint(want) {
							t.Fatalf("demand %d forbidden %d penalty %v: Reroute = %v cost %v, unguided %v cost %v, closures = %v cost %v",
								i, forbidden, penalty, got, cost, unguided, plainCost, want, wantCost)
						}
					}
				}
			}
			if plain.sp.guided != 0 {
				t.Fatalf("the unguided ledger started %d guided runs", plain.sp.guided)
			}
			checkGuideCounts(t, in.name, l.sp)
			for v := 0; v < in.g.Len(); v++ {
				if l.RefCount(v) != fresh.RefCount(v) || math.Float64bits(l.Price(v)) != math.Float64bits(fresh.Price(v)) {
					t.Fatalf("node %d after reroutes: refcount %d price %v, fresh ledger %d / %v",
						v, l.RefCount(v), l.Price(v), fresh.RefCount(v), fresh.Price(v))
				}
			}
		})
	}
}

// checkGuideCounts asserts what a scratch's counters must show after an
// instance's runs: some run guided, at least one fallback on the unit
// grid, at least one guided result kept on real weights.
func checkGuideCounts(t *testing.T, name string, s SPScratch) {
	t.Helper()
	t.Logf("%s: %d guided runs, %d fallbacks", name, s.guided, s.fallbacks)
	switch {
	case s.guided == 0:
		t.Errorf("%s: no run was guided", name)
	case name == "grid" && s.fallbacks == 0:
		t.Errorf("grid: %d guided runs and not one fallback", s.guided)
	case strings.HasPrefix(name, "real") && s.fallbacks == s.guided:
		t.Errorf("%s: all %d guided runs fell back", name, s.guided)
	}
}

// TestScaledPathMatchesUnguided is the closure kernel's half: for every
// source and destination of every instance, several scales and node
// prices (none, the idle weights, multiplier-like tables with zeros and a
// blocked node), ScaledPathInto — guided — returns the path and the
// Float64bits-equal cost of ShortestPathInto pricing each edge scale·w in a
// closure, the unguided run the bound's passes made before.
func TestScaledPathMatchesUnguided(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	for _, in := range pricedInstances() {
		t.Run(in.name, func(t *testing.T) {
			n := in.g.Len()
			lam := make([]float64, n)
			for v := range lam {
				if rng.IntN(3) > 0 {
					lam[v] = rng.Float64() * 2
				}
			}
			lam[rng.IntN(n)] = math.Inf(1)
			prices := []NodeCostFunc{
				nil,
				func(v int) float64 { return 1.7 * in.g.NodeWeight(v) },
				func(v int) float64 { return lam[v] },
			}
			var guided, plain SPScratch
			var buf, plainBuf []int
			for _, scale := range []float64{1, 0.3, 1.7 * 3} {
				edge := func(_, _ int, w float64) float64 { return scale * w }
				for k, price := range prices {
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							got, cost := in.g.ScaledPathInto(&guided, src, dst, scale, price, buf)
							buf = got
							want, wantCost := in.g.ShortestPathInto(&plain, src, dst, edge, price, plainBuf)
							plainBuf = want
							if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("scale %v prices %d %d->%d: ScaledPathInto = %v cost %v, unguided %v cost %v",
									scale, k, src, dst, got, cost, want, wantCost)
							}
						}
					}
				}
			}
			checkGuideCounts(t, in.name, guided)
		})
	}
}

// roundingAdversary draws a graph built to make rounding decide — a first
// hop from node 0 of weight 2^e, then hops of 0, fractions and small
// multiples of that weight's ulp, and idle weights of the same sizes — so
// that the potential's keys, the path sums and the heap's pop order tie or
// cross within an ulp; and a scale to price it at.
func roundingAdversary(trial int) (*Graph, float64) {
	rng := rand.New(rand.NewPCG(9, uint64(trial)))
	e := 10 + rng.IntN(30)
	base, u := math.Ldexp(1, e), math.Ldexp(1, e-52)
	sizes := []float64{0, u / 4, u / 2, u, 3 * u / 2, 2 * u, 3 * u, base / 7, base * 0.3}
	n := 4 + rng.IntN(8)
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetNodeWeight(v, sizes[rng.IntN(len(sizes))])
	}
	for v := 1; v < n; v++ {
		if rng.IntN(2) == 0 {
			g.AddEdge(0, v, base+sizes[rng.IntN(len(sizes))])
		}
	}
	for k := 0; k < 2*n; k++ {
		if a, b := 1+rng.IntN(n-1), 1+rng.IntN(n-1); a != b {
			g.AddEdge(a, b, sizes[rng.IntN(len(sizes))])
		}
	}
	return g, []float64{1, 0.1, 3, 1e-3}[rng.IntN(4)]
}

// adversaryTrials are roundingAdversary's trials that, in a sweep of
// 40,000, caught a kernel that skipped the settled-node check; the first
// thousands catch the other events many times over.
var adversaryTrials = []int{12300, 14198, 17382, 20017, 28520, 34336, 36042}

// TestPricedPathRoundingAdversary: on roundingAdversary's graphs, both
// kernels, guided, must return the unguided path and cost for every
// destination from node 0. Drop any one of the three fallback events, or
// make the near-tie test at dst exact, and some trial here comes back
// different.
func TestPricedPathRoundingAdversary(t *testing.T) {
	var closure, flat SPScratch // the closure kernel's scratch; the flat kernel's counts
	trials := adversaryTrials
	for trial := 0; trial < 3000; trial++ {
		trials = append(trials, trial)
	}
	for _, trial := range trials {
		g, scale := roundingAdversary(trial)
		edge := func(_, _ int, w float64) float64 { return scale * w }
		idle := func(v int) float64 { return g.NodeWeight(v) }
		var plain SPScratch
		for dst := 1; dst < g.Len(); dst++ {
			for _, price := range []NodeCostFunc{nil, idle} {
				got, cost := g.ScaledPathInto(&closure, 0, dst, scale, price, nil)
				want, wantCost := g.ShortestPathInto(&plain, 0, dst, edge, price, nil)
				if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d scale %v 0->%d: ScaledPathInto = %v cost %v, unguided %v cost %v",
						trial, scale, dst, got, cost, want, wantCost)
				}
			}
			// The flat kernel: one demand 0->dst on an empty design, so
			// every other node costs its idle weight, at TIdle 0 and 1.
			demands := []Demand{{Src: 0, Dst: dst}}
			for _, cfg := range []EvalConfig{{TIdle: 0, TData: scale}, {TIdle: 1, TData: scale}} {
				l := g.NewLedger(demands, cfg)
				got, cost := l.Reroute(0, dst, nil, l.Pkts(0)*cfg.TData, 1, -1, nil)
				want, wantCost := closureReroute(g, demands, cfg, &Design{Routes: [][]int{nil}}, 0, -1, 1)
				if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d TIdle %v scale %v 0->%d: Reroute = %v cost %v, closures %v cost %v",
						trial, cfg.TIdle, scale, dst, got, cost, want, wantCost)
				}
				flat.guided += l.sp.guided
				flat.fallbacks += l.sp.fallbacks
			}
		}
	}
	t.Logf("closure kernel: %d guided, %d fallbacks; flat kernel: %d guided, %d fallbacks",
		closure.guided, closure.fallbacks, flat.guided, flat.fallbacks)
}

// TestPotentialConcurrentFirstUse: parallel restarts and the bound's
// workers share one Graph, so the first requests for a destination's
// potential table race — ledgers built at once beside ScaledPathInto runs.
// Every goroutine must see the one table and get the unguided path and
// cost. CI runs it under the race detector.
func TestPotentialConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	g := realGraph(rng, 300)
	const dst = 150
	demands := []Demand{{Src: 3, Dst: dst}, {Src: 77, Dst: dst, Rate: 2}, {Src: 9, Dst: 42}}
	cfg := EvalConfig{TIdle: 1.7, TData: 0.3}
	endpoint := map[int]bool{3: true, 77: true, 9: true, 42: true, dst: true}
	// An empty design's idle prices, as a ledger would charge them.
	price := func(v int) float64 {
		if endpoint[v] {
			return 0
		}
		return cfg.TIdle * g.NodeWeight(v)
	}
	want := make([]string, len(demands))
	for i, dm := range demands {
		scale := dm.rate() * cfg.TData
		p, c := g.ShortestPathInto(new(SPScratch), dm.Src, dm.Dst, func(_, _ int, w float64) float64 { return scale * w }, price, nil)
		want[i] = fmt.Sprintf("%v %016x", p, math.Float64bits(c))
	}
	const workers = 8
	tables := make([][]float64, workers)
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s SPScratch
			var l *Ledger
			if w%2 == 0 {
				l = g.NewLedger(demands, cfg)
			}
			for i, dm := range demands {
				var p []int
				var c float64
				if l != nil {
					p, c = l.Reroute(dm.Src, dm.Dst, nil, l.Pkts(i)*cfg.TData, 1, -1, nil)
				} else {
					p, c = g.ScaledPathInto(&s, dm.Src, dm.Dst, dm.rate()*cfg.TData, price, nil)
				}
				got[w] = append(got[w], fmt.Sprintf("%v %016x", p, math.Float64bits(c)))
			}
			tables[w] = g.index().guide(g, &s, dst, 1)
		}()
	}
	wg.Wait()
	for w := range got {
		if fmt.Sprint(got[w]) != fmt.Sprint(want) {
			t.Errorf("goroutine %d: %v, unguided %v", w, got[w], want)
		}
		if &tables[w][0] != &tables[0][0] {
			t.Errorf("goroutine %d got a table of its own", w)
		}
	}
}

// TestPotentialBuiltOnlyWhereExact: no table for a graph with a negative,
// NaN or infinite weight, no guided run at a scale that is not positive
// and finite, and AddEdge drops the tables with the index — a table built
// before a shortcut was added would overestimate, and the run after it
// must still match the unguided one.
func TestPotentialBuiltOnlyWhereExact(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		g := unitGrid(4)
		g.AddEdge(0, 15, w)
		if g.index().guide(g, new(SPScratch), 15, 1) != nil || g.index().pot[15].table.Load() != nil {
			t.Errorf("weight %v: a potential table was built", w)
		}
	}
	rng := rand.New(rand.NewPCG(34, 1))
	g := realGraph(rng, 60)
	var s SPScratch
	for _, scale := range []float64{0, math.NaN(), math.Inf(1)} {
		g.ScaledPathInto(&s, 0, 59, scale, nil, nil)
	}
	if s.guided != 0 {
		t.Errorf("%d runs guided at a scale that is not positive and finite", s.guided)
	}
	check := func(where string) {
		t.Helper()
		want, wantCost := g.ShortestPathInto(new(SPScratch), 0, 59, nil, nil, nil)
		got, cost := g.ScaledPathInto(&s, 0, 59, 1, nil, nil)
		if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: ScaledPathInto = %v cost %v, unguided %v cost %v", where, got, cost, want, wantCost)
		}
	}
	check("before AddEdge")
	if g.index().pot[59].table.Load() == nil {
		t.Fatal("no table cached for destination 59")
	}
	g.AddEdge(0, 59, 1e-3)
	if g.idx.Load() != nil {
		t.Fatal("AddEdge kept the index")
	}
	check("after a shortcut")
	if s.guided != 2 {
		t.Errorf("%d guided runs, want 2", s.guided)
	}

	// A negative price voids a guided run and the unguided rerun reports
	// it; a ledger with a negative idle price never guides, since a guided
	// run might not meet the price the unguided one panics on.
	panics := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	if v := panics(func() { g.ScaledPathInto(&s, 0, 59, 1, func(int) float64 { return -1 }, nil) }); v != "core: negative cost in Dijkstra" {
		t.Errorf("negative node price: recovered %v", v)
	}
	if s.fallbacks != 1 {
		t.Errorf("%d fallbacks after a negative price, want 1", s.fallbacks)
	}
	g.SetNodeWeight(30, -1)
	l := g.NewLedger([]Demand{{Src: 0, Dst: 59}}, EvalConfig{TIdle: 1, TData: 1})
	if !l.unguided {
		t.Error("a ledger with a negative idle price guides its reroutes")
	}
}

// TestPotentialBudgetAndGiveUp: the index builds no more tables than fit in
// the memory it takes itself and runs every other destination unguided, and
// it stops guiding runs to a destination once more than half of them were
// voided, while one whose runs keep their results stays guided. Every run
// still returns the unguided path and cost.
func TestPotentialBudgetAndGiveUp(t *testing.T) {
	check := func(g *Graph, s *SPScratch, src, dst int) {
		t.Helper()
		want, wantCost := g.ShortestPathInto(new(SPScratch), src, dst, nil, nil, nil)
		got, cost := g.ScaledPathInto(s, src, dst, 1, nil, nil)
		if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d->%d: ScaledPathInto = %v cost %v, unguided %v cost %v", src, dst, got, cost, want, wantCost)
		}
	}

	// A sparse ring with chords: far fewer tables fit than there are nodes.
	rng := rand.New(rand.NewPCG(35, 1))
	ring := NewGraph(200)
	for v := 0; v < 200; v++ {
		ring.AddEdge(v, (v+1)%200, 0.1+rng.Float64())
	}
	ring.AddEdge(0, 100, 0.5)
	var s SPScratch
	for dst := 0; dst < 200; dst++ {
		check(ring, &s, (dst+50)%200, dst)
	}
	ix := ring.index()
	if ix.maxTables >= 200 || ix.tables.Load() != ix.maxTables {
		t.Errorf("%d tables built, budget %d, on a 200-node ring", ix.tables.Load(), ix.maxTables)
	}
	if int64(s.guided) != ix.maxTables {
		t.Errorf("%d runs guided, want one per table (%d)", s.guided, ix.maxTables)
	}
	if ix.guide(ring, &s, 199, 1) != nil {
		t.Error("a destination past the budget got a table")
	}

	// The unit grid voids most runs toward its corner; real weights keep
	// theirs.
	for _, c := range []struct {
		name  string
		g     *Graph
		given bool
	}{{"grid", unitGrid(8), true}, {"real", realGraph(rng, 64), false}} {
		var s SPScratch
		for round := 0; round < 3; round++ {
			for src := 1; src < c.g.Len(); src++ {
				check(c.g, &s, src, 0)
			}
		}
		slot := &c.g.index().pot[0]
		runs, voids := slot.runs.Load(), slot.voids.Load()
		t.Logf("%s: %d runs guided, %d voided", c.name, runs, voids)
		if runs < guideProbe || (c.g.index().guide(c.g, &s, 0, 1) == nil) != c.given {
			t.Errorf("%s: %d runs guided, %d voided; guide given up: %v, want %v",
				c.name, runs, voids, !c.given, c.given)
		}
	}
}

// TestLedgerPriceTable: Add and Remove keep the price table equal to its
// definition — zero for endpoints and nodes on a route, TIdle·c(v) for the
// rest.
func TestLedgerPriceTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	g := randomGraph(rng, 20)
	demands := []Demand{{Src: 0, Dst: 9}, {Src: 3, Dst: 12}, {Src: 5, Dst: 1}}
	cfg := cfgFor()
	d := randomDesign(g, demands, rng)
	l := g.NewLedger(demands, cfg)
	check := func(where string) {
		t.Helper()
		for v := 0; v < g.Len(); v++ {
			want := cfg.TIdle * g.NodeWeight(v)
			if l.Endpoint(v) || l.Active(v) {
				want = 0
			}
			if l.Price(v) != want {
				t.Fatalf("%s: price[%d] = %v, want %v", where, v, l.Price(v), want)
			}
		}
	}
	check("empty ledger")
	l.Reset(d)
	check("after Reset")
	for _, r := range d.Routes {
		l.Remove(r)
		check("after Remove")
	}
	l.Add([]int{0, 1, 0}) // a node visited twice stays free until both visits go
	check("after Add")
	l.Remove([]int{0, 1, 0})
	check("after Remove of a non-simple route")
}
