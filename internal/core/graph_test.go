package core

import (
	"math"
	"slices"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.0)
	g.SetNodeWeight(2, 7)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2.5 {
		t.Fatalf("EdgeWeight(0,1) = %v,%v", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 2.5 {
		t.Fatalf("edge must be undirected: %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("missing edge reported present")
	}
	if g.NodeWeight(2) != 7 {
		t.Fatal("node weight lost")
	}
	if n := g.Neighbors(1); len(n) != 2 {
		t.Fatalf("Neighbors(1) = %v", n)
	}
}

func TestGraphParallelEdgesMinWeight(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 3)
	if w, _ := g.EdgeWeight(0, 1); w != 3 {
		t.Fatalf("EdgeWeight = %v, want min 3", w)
	}
}

func TestGraphPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("self-loop", func() { NewGraph(2).AddEdge(1, 1, 1) })
	mustPanic("out of range", func() { NewGraph(2).AddEdge(0, 5, 1) })
	mustPanic("node weight", func() { NewGraph(1).SetNodeWeight(3, 1) })
}

func TestDijkstraLine(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	dist, parent := g.Dijkstra(0, nil, nil)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
	if parent[3] != 2 || parent[1] != 0 {
		t.Fatalf("parent = %v", parent)
	}
}

func TestDijkstraPicksCheaperDetour(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	path, cost := g.ShortestPath(0, 2, nil, nil)
	if cost != 2 || len(path) != 3 || path[1] != 1 {
		t.Fatalf("path=%v cost=%v", path, cost)
	}
}

func TestDijkstraNodeCost(t *testing.T) {
	// Direct edge costs 3; detour via node 1 costs 1+1 edges but node 1
	// charges 5 -> direct wins.
	g := NewGraph(3)
	g.AddEdge(0, 2, 3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	nodeCost := func(v int) float64 {
		if v == 1 {
			return 5
		}
		return 0
	}
	path, cost := g.ShortestPath(0, 2, nil, nodeCost)
	if len(path) != 2 || cost != 3 {
		t.Fatalf("path=%v cost=%v, want direct", path, cost)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	path, cost := g.ShortestPath(0, 2, nil, nil)
	if path != nil || !math.IsInf(cost, 1) {
		t.Fatalf("unreachable: path=%v cost=%v", path, cost)
	}
}

// TestShortestPathInfiniteNodePrice: +Inf on entering a node blocks it (the
// exact solver's device for staying inside an activation set).
func TestShortestPathInfiniteNodePrice(t *testing.T) {
	block := func(blocked int) NodeCostFunc {
		return func(v int) float64 {
			if v == blocked {
				return math.Inf(1)
			}
			return 0
		}
	}
	line := NewGraph(3) // 0 - 1 - 2: node 1 is the only cut vertex
	line.AddEdge(0, 1, 1)
	line.AddEdge(1, 2, 1)
	if path, cost := line.ShortestPath(0, 2, nil, block(1)); path != nil || !math.IsInf(cost, 1) {
		t.Fatalf("blocked cut vertex: path=%v cost=%v, want none at +Inf", path, cost)
	}
	diamond := NewGraph(4) // 0 - 1 - 3 (cheap) beside 0 - 2 - 3
	diamond.AddEdge(0, 1, 1)
	diamond.AddEdge(1, 3, 1)
	diamond.AddEdge(0, 2, 2)
	diamond.AddEdge(2, 3, 2)
	if path, cost := diamond.ShortestPath(0, 3, nil, block(1)); !slices.Equal(path, []int{0, 2, 3}) || cost != 4 {
		t.Fatalf("blocked cheap route: path=%v cost=%v, want [0 2 3] at 4", path, cost)
	}
}

func TestDijkstraNegativeCostPanics(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative cost")
		}
	}()
	g.Dijkstra(0, nil, nil)
}

func TestDesignActiveAndFeasible(t *testing.T) {
	d := &Design{Routes: [][]int{{0, 1, 2}, {3, 1, 4}}}
	if act := d.Active(); !slices.Equal(act, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("active nodes %v, want each of 0..4 once, ascending", act)
	}
	demands := []Demand{{Src: 0, Dst: 2}, {Src: 3, Dst: 4}}
	if !d.Feasible(demands) {
		t.Fatal("design should be feasible")
	}
	if d.Feasible([]Demand{{Src: 0, Dst: 9}, {Src: 3, Dst: 4}}) {
		t.Fatal("wrong endpoints must be infeasible")
	}
	if (&Design{}).Feasible(demands) {
		t.Fatal("missing routes must be infeasible")
	}
}

func TestEnetworkSimple(t *testing.T) {
	// 0 -(2)- 1 -(3)- 2, node 1 weighs 5. Demand 0->2, 1 packet.
	g := NewGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.SetNodeWeight(0, 100) // endpoint: free
	g.SetNodeWeight(1, 5)
	g.SetNodeWeight(2, 100) // endpoint: free
	demands := []Demand{{Src: 0, Dst: 2}}
	d := &Design{Routes: [][]int{{0, 1, 2}}}
	got := g.Enetwork(demands, d, EvalConfig{TIdle: 10, TData: 1})
	want := 10*5.0 + (2.0 + 3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Enetwork = %v, want %v", got, want)
	}
}

func TestEnetworkRateMultipliesTraffic(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 2)
	demands := []Demand{{Src: 0, Dst: 1, Rate: 4}}
	d := &Design{Routes: [][]int{{0, 1}}}
	got := g.Enetwork(demands, d, EvalConfig{TIdle: 1, TData: 1})
	if got != 8 {
		t.Fatalf("Enetwork = %v, want 8 (rate-scaled)", got)
	}
}

func TestEnetworkMissingEdgePanics(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for route over missing edge")
		}
	}()
	g.Enetwork([]Demand{{Src: 0, Dst: 2}}, &Design{Routes: [][]int{{0, 2}}}, EvalConfig{TData: 1})
}
