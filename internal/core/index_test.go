package core

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"
)

// randomGraph builds a connected-ish random graph with duplicate (parallel)
// edges and small integer weights, so equal-cost paths are common and
// tie-breaking is actually exercised.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetNodeWeight(v, float64(rng.IntN(5)))
	}
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.IntN(v), float64(1+rng.IntN(3)))
	}
	extra := n * 2
	for k := 0; k < extra; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.IntN(3)))
		}
	}
	return g
}

// naiveEdgeWeight is the pre-index linear scan: minimum over parallel edges.
func naiveEdgeWeight(g *Graph, u, v int) (float64, bool) {
	best, ok := math.Inf(1), false
	for _, e := range g.adj[u] {
		if e.to == v && e.w < best {
			best, ok = e.w, true
		}
	}
	return best, ok
}

func TestEdgeIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 12+rng.IntN(10))
		for u := 0; u < g.Len(); u++ {
			for v := 0; v < g.Len(); v++ {
				if u == v {
					continue
				}
				ww, wok := naiveEdgeWeight(g, u, v)
				iw, iok := g.EdgeWeight(u, v)
				if wok != iok || (wok && ww != iw) {
					t.Fatalf("trial %d: EdgeWeight(%d,%d) = %v,%v want %v,%v", trial, u, v, iw, iok, ww, wok)
				}
				e1, ok1 := g.index().find(u, v)
				e2, ok2 := g.index().find(v, u)
				if ok1 != wok || ok2 != wok || e1.id != e2.id {
					t.Fatalf("trial %d: id{%d,%d}=%d,%v id{%d,%d}=%d,%v (exists %v)", trial, u, v, e1.id, ok1, v, u, e2.id, ok2, wok)
				}
			}
		}
		ix := g.index()
		if ne := len(ix.edgeW); ne <= 0 || ne > g.Len()*(g.Len()-1)/2 {
			t.Fatalf("%d edge ids, out of range", ne)
		}
		// The CSR view is the adjacency in insertion order, parallel edges
		// kept, each arc carrying its collapsed pair's id.
		for u := 0; u < g.Len(); u++ {
			arcs := ix.arcs[ix.off[u]:ix.off[u+1]]
			if len(arcs) != len(g.adj[u]) {
				t.Fatalf("trial %d: node %d has %d arcs, adjacency %d", trial, u, len(arcs), len(g.adj[u]))
			}
			for k, e := range g.adj[u] {
				pair, _ := ix.find(u, e.to)
				if a := arcs[k]; int(a.to) != e.to || a.w != e.w || a.id != pair.id {
					t.Fatalf("trial %d: arc %d of node %d = %+v, adjacency %+v with id %d", trial, k, u, a, e, pair.id)
				}
			}
		}
	}
}

func TestEdgeIndexInvalidatedByAddEdge(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 2)
	if _, ok := g.EdgeWeight(1, 2); ok {
		t.Fatal("edge {1,2} should not exist yet")
	}
	g.AddEdge(1, 2, 5)
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 5 {
		t.Fatalf("EdgeWeight(1,2) after AddEdge = %v,%v", w, ok)
	}
	// A cheaper parallel edge must replace the indexed minimum.
	g.AddEdge(1, 2, 1)
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 1 {
		t.Fatalf("EdgeWeight(1,2) after parallel AddEdge = %v,%v", w, ok)
	}
}

// refPQ is the container/heap priority queue the hand-rolled scratch heap
// replaced; refDijkstra reproduces the original implementation verbatim so
// the differential test pins the tie-breaking, not just the distances.
type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refDijkstra(g *Graph, src int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc) ([]float64, []int) {
	if edgeCost == nil {
		edgeCost = func(_, _ int, w float64) float64 { return w }
	}
	if nodeCost == nil {
		nodeCost = func(int) float64 { return 0 }
	}
	dist := make([]float64, g.n)
	parent := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			c := edgeCost(u, e.to, e.w) + nodeCost(e.to)
			if nd := dist[u] + c; nd < dist[e.to] {
				dist[e.to] = nd
				parent[e.to] = u
				heap.Push(q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, parent
}

// TestDijkstraMatchesHeapReference pins DijkstraInto — distances AND
// parents, i.e. every equal-cost tie-break — to the container/heap
// implementation it replaced. Integer weights make ties abundant. The second
// node cost prices a seeded third of the nodes at +Inf, the blocking device
// ExactSolve routes with: same floats, no NaN, and a blocked node is never
// anyone's parent.
func TestDijkstraMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	blockRng := rand.New(rand.NewPCG(9, 2)) // its own stream, so the graphs stay the ones this test always drew
	var s SPScratch
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 10+rng.IntN(15))
		blocked := make([]bool, g.Len())
		for v := range blocked {
			blocked[v] = blockRng.IntN(3) == 0
		}
		weight := func(v int) float64 { return g.nodeWeight[v] }
		orBlocked := func(v int) float64 {
			if blocked[v] {
				return math.Inf(1)
			}
			return g.nodeWeight[v]
		}
		for k, nodeCost := range []NodeCostFunc{weight, orBlocked} {
			for src := 0; src < g.Len(); src++ {
				wd, wp := refDijkstra(g, src, nil, nodeCost)
				gd, gp := g.DijkstraInto(&s, src, nil, nodeCost)
				for v := range wd {
					if math.Float64bits(wd[v]) != math.Float64bits(gd[v]) || gd[v] != gd[v] {
						t.Fatalf("trial %d cost %d src %d: dist[%d] = %v want %v", trial, k, src, v, gd[v], wd[v])
					}
					if wp[v] != gp[v] {
						t.Fatalf("trial %d cost %d src %d: parent[%d] = %d want %d (tie-break drift)", trial, k, src, v, gp[v], wp[v])
					}
					if k == 1 && gp[v] >= 0 && gp[v] != src && blocked[gp[v]] {
						t.Fatalf("trial %d src %d: infinitely priced node %d is parent of %d", trial, src, gp[v], v)
					}
				}
			}
		}
	}
}

func TestShortestPathIntoMatchesShortestPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	var s SPScratch
	var buf []int
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 12)
		for k := 0; k < 20; k++ {
			src, dst := rng.IntN(g.Len()), rng.IntN(g.Len())
			p1, c1 := g.ShortestPath(src, dst, nil, nil)
			p2, c2 := g.ShortestPathInto(&s, src, dst, nil, nil, buf)
			buf = p2
			if math.Float64bits(c1) != math.Float64bits(c2) && !(math.IsInf(c1, 1) && math.IsInf(c2, 1)) {
				t.Fatalf("cost mismatch: %v vs %v", c1, c2)
			}
			if len(p1) != len(p2) {
				t.Fatalf("path mismatch: %v vs %v", p1, p2)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("path mismatch: %v vs %v", p1, p2)
				}
			}
		}
	}
}

func TestDijkstraIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	g := randomGraph(rng, 30)
	var s SPScratch
	var buf []int
	g.DijkstraInto(&s, 0, nil, nil) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = g.ShortestPathInto(&s, 0, g.Len()-1, nil, nil, buf)
	})
	if allocs != 0 {
		t.Fatalf("ShortestPathInto allocates %v/op with a warm scratch", allocs)
	}
}

// randomDesign routes each demand along a shortest path under a randomly
// weighted metric, producing valid but varied designs for ledger tests.
func randomDesign(g *Graph, demands []Demand, rng *rand.Rand) *Design {
	d := &Design{Routes: make([][]int, len(demands))}
	for i, dm := range demands {
		jitter := 1 + rng.Float64()
		path, _ := g.ShortestPath(dm.Src, dm.Dst, func(_, _ int, w float64) float64 { return w * jitter }, nil)
		d.Routes[i] = path
	}
	return d
}

func TestLedgerEnergyBitIdenticalToEnetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 10+rng.IntN(12))
		var demands []Demand
		for k := 0; k < 2+rng.IntN(5); k++ {
			u, v := rng.IntN(g.Len()), rng.IntN(g.Len())
			if u == v {
				continue
			}
			demands = append(demands, Demand{Src: u, Dst: v, Rate: float64(rng.IntN(3))})
		}
		if len(demands) == 0 {
			continue
		}
		cfg := EvalConfig{TIdle: 1 + rng.Float64(), TData: rng.Float64()}
		if trial%2 == 0 {
			cfg.PacketsPerDemand = float64(1 + rng.IntN(4))
		}
		d := randomDesign(g, demands, rng)
		l := g.NewLedger(demands, cfg)
		l.Reset(d)
		want := g.Enetwork(demands, d, cfg)
		got := l.Energy(d)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: Ledger.Energy = %v (bits %x) want Enetwork = %v (bits %x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestLedgerAddRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	g := randomGraph(rng, 16)
	demands := []Demand{{Src: 0, Dst: 9, Rate: 2}, {Src: 3, Dst: 12}, {Src: 5, Dst: 1, Rate: 1}}
	d := randomDesign(g, demands, rng)
	l := g.NewLedger(demands, cfgFor())
	l.Reset(d)
	ref := make([]int32, len(l.refcount))
	use := make([]int32, len(l.edgeUse))
	copy(ref, l.refcount)
	copy(use, l.edgeUse)
	e0 := l.Energy(d)
	for k := 0; k < 50; k++ {
		i := rng.IntN(len(demands))
		alt, _ := g.ShortestPath(demands[i].Src, demands[i].Dst, nil, func(v int) float64 { return float64(rng.IntN(2)) })
		old := d.Routes[i]
		l.Remove(old)
		l.Add(alt)
		d.Routes[i] = alt
		// ... and undo.
		l.Remove(alt)
		l.Add(old)
		d.Routes[i] = old
		for v := range ref {
			if ref[v] != l.refcount[v] {
				t.Fatalf("step %d: refcount[%d] = %d want %d", k, v, l.refcount[v], ref[v])
			}
		}
		for id := range use {
			if use[id] != l.edgeUse[id] {
				t.Fatalf("step %d: edgeUse[%d] = %d want %d", k, id, l.edgeUse[id], use[id])
			}
		}
		if math.Float64bits(l.Energy(d)) != math.Float64bits(e0) {
			t.Fatalf("step %d: energy drifted after apply/undo", k)
		}
	}
}

func cfgFor() EvalConfig { return EvalConfig{TIdle: 300, TData: 300, PacketsPerDemand: 1} }

func TestLedgerAccessors(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	demands := []Demand{{Src: 0, Dst: 3, Rate: 1}}
	l := g.NewLedger(demands, cfgFor())
	l.Reset(&Design{Routes: [][]int{{0, 1, 2, 3}}})
	if !l.Active(1) || !l.Active(2) || l.RefCount(1) != 1 {
		t.Fatal("relays not accounted")
	}
	if !l.Endpoint(0) || !l.Endpoint(3) || l.Endpoint(1) {
		t.Fatal("endpoint table wrong")
	}
	if l.EdgeUse(1, 2) != 1 || l.EdgeUse(2, 1) != 1 {
		t.Fatal("edge use not symmetric")
	}
	if l.EdgeUse(0, 3) != 0 {
		t.Fatal("missing edge should report zero use")
	}
	if l.Pkts(0) != 1 {
		t.Fatalf("Pkts(0) = %v", l.Pkts(0))
	}
}
