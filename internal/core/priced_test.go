package core

import (
	"fmt"
	"math"
	"math/rand/v2"
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

	// Unit-weight grid, unit node weights: every node has exact ties.
	const side = 6
	grid := NewGraph(side * side)
	for v := 0; v < side*side; v++ {
		grid.SetNodeWeight(v, 1)
		if v%side+1 < side {
			grid.AddEdge(v, v+1, 1)
		}
		if v+side < side*side {
			grid.AddEdge(v, v+side, 1)
		}
	}
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

// TestPricedPathMatchesClosures is the core-level half of determinism
// contract entry 9: for every demand of every instance, every forbidden
// node (and none) and penalties of 1 and above, Ledger.Reroute returns the
// path and the Float64bits-equal cost of the closure kernel pricing the
// same reroute, and leaves the ledger as it found it.
func TestPricedPathMatchesClosures(t *testing.T) {
	for _, in := range pricedInstances() {
		t.Run(in.name, func(t *testing.T) {
			cfg := EvalConfig{TIdle: 1.7, TData: 0.3}
			l := in.g.NewLedger(in.demands, cfg)
			l.Reset(in.design)
			fresh := in.g.NewLedger(in.demands, cfg)
			fresh.Reset(in.design)
			var buf []int
			for i, dm := range in.demands {
				for forbidden := -1; forbidden < in.g.Len(); forbidden++ {
					for _, penalty := range []float64{1, 2.5, 7.999} {
						want, wantCost := closureReroute(in.g, in.demands, cfg, in.design, i, forbidden, penalty)
						var got []int
						got, cost := l.Reroute(dm.Src, dm.Dst, in.design.Routes[i], l.Pkts(i)*cfg.TData, penalty, forbidden, buf)
						buf = got
						if math.Float64bits(cost) != math.Float64bits(wantCost) || fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("demand %d forbidden %d penalty %v: Reroute = %v cost %v, closures = %v cost %v",
								i, forbidden, penalty, got, cost, want, wantCost)
						}
					}
				}
			}
			for v := 0; v < in.g.Len(); v++ {
				if l.RefCount(v) != fresh.RefCount(v) || math.Float64bits(l.Price(v)) != math.Float64bits(fresh.Price(v)) {
					t.Fatalf("node %d after reroutes: refcount %d price %v, fresh ledger %d / %v",
						v, l.RefCount(v), l.Price(v), fresh.RefCount(v), fresh.Price(v))
				}
			}
		})
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
