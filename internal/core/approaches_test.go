package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// lineWorld builds a grid-ish random geometric graph with uniform node
// weight cIdle and edge weight proportional to distance^2.
func randomGeoGraph(n int, cIdle float64, rng *rand.Rand) *Graph {
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64() * 100, rng.Float64() * 100}
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.SetNodeWeight(i, cIdle)
		for j := i + 1; j < n; j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			d2 := dx*dx + dy*dy
			if d2 < 40*40 {
				g.AddEdge(i, j, 0.1+d2/1000)
			}
		}
	}
	return g
}

func TestSolveAllApproachesFeasible(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomGeoGraph(40, 5, rng)
	demands := []Demand{{Src: 0, Dst: 39}, {Src: 5, Dst: 35}, {Src: 10, Dst: 30}}
	for _, a := range []Approach{CommFirst, Joint, IdleFirst} {
		d, err := g.Solve(demands, a)
		if err != nil {
			t.Skipf("random graph disconnected for this seed: %v", err)
		}
		if !d.Feasible(demands) {
			t.Fatalf("%v produced infeasible design", a)
		}
	}
}

func TestIdleFirstUsesFewestRelays(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := randomGeoGraph(60, 5, rng)
	demands := []Demand{{Src: 0, Dst: 59}, {Src: 1, Dst: 58}, {Src: 2, Dst: 57}}
	counts := make(map[Approach]int)
	for _, a := range []Approach{CommFirst, Joint, IdleFirst} {
		d, err := g.Solve(demands, a)
		if err != nil {
			t.Skipf("disconnected: %v", err)
		}
		counts[a] = len(d.Active())
	}
	if counts[IdleFirst] > counts[CommFirst] {
		t.Fatalf("idle-first activates %d nodes, comm-first %d; idle-first must not use more",
			counts[IdleFirst], counts[CommFirst])
	}
}

func TestIdleFirstWinsWhenIdleDominates(t *testing.T) {
	// With tidle*c >> communication costs, the idle-first design must have
	// the lowest Enetwork: the paper's central claim in static form.
	rng := rand.New(rand.NewPCG(5, 6))
	g := randomGeoGraph(50, 10, rng)
	demands := []Demand{{Src: 0, Dst: 49}, {Src: 3, Dst: 45}, {Src: 7, Dst: 41}}
	res, err := g.CompareApproaches(demands, EvalConfig{TIdle: 1000, TData: 1})
	if err != nil {
		t.Skipf("disconnected: %v", err)
	}
	if res[IdleFirst] > res[CommFirst]+1e-9 {
		t.Fatalf("idle-first %.1f should beat comm-first %.1f when idling dominates",
			res[IdleFirst], res[CommFirst])
	}
	if res[IdleFirst] > res[Joint]+1e-9 {
		t.Fatalf("idle-first %.1f should not lose to joint %.1f when idling dominates",
			res[IdleFirst], res[Joint])
	}
}

func TestCommFirstWinsWhenTrafficDominates(t *testing.T) {
	// With huge traffic and negligible idle cost, the comm-first design
	// must win (the regime of Figs. 15: high rates with perfect sleep).
	rng := rand.New(rand.NewPCG(7, 8))
	g := randomGeoGraph(50, 0.001, rng)
	demands := []Demand{{Src: 0, Dst: 49, Rate: 100}, {Src: 3, Dst: 45, Rate: 100}}
	res, err := g.CompareApproaches(demands, EvalConfig{TIdle: 1, TData: 10})
	if err != nil {
		t.Skipf("disconnected: %v", err)
	}
	if res[CommFirst] > res[IdleFirst]+1e-9 {
		t.Fatalf("comm-first %.2f should beat idle-first %.2f when traffic dominates",
			res[CommFirst], res[IdleFirst])
	}
}

func TestSolveUnknownApproach(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	if _, err := g.Solve([]Demand{{Src: 0, Dst: 1}}, Approach(9)); err == nil {
		t.Fatal("unknown approach must error")
	}
}

func TestSolveUnroutable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	if _, err := g.Solve([]Demand{{Src: 0, Dst: 2}}, CommFirst); err == nil {
		t.Fatal("disconnected demand must error")
	}
}

func TestApproachString(t *testing.T) {
	for a, want := range map[Approach]string{
		CommFirst: "comm-first", Joint: "joint", IdleFirst: "idle-first",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if Approach(0).String() == "" {
		t.Error("unknown approach should stringify")
	}
}

func TestSteinerTreeConnectsTerminals(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	g := randomGeoGraph(40, 1, rng)
	terminals := []int{1, 10, 20, 30}
	tree, err := g.SteinerTree(0, terminals, nil, nil)
	if err != nil {
		t.Skipf("disconnected: %v", err)
	}
	for _, v := range terminals {
		path := tree.PathTo(v)
		if path == nil {
			t.Fatalf("terminal %d not in tree", v)
		}
		if path[len(path)-1] != 0 {
			t.Fatalf("path from %d does not reach root: %v", v, path)
		}
		// Path edges must exist.
		for i := 0; i+1 < len(path); i++ {
			if _, ok := g.EdgeWeight(path[i], path[i+1]); !ok {
				t.Fatalf("tree path uses missing edge (%d,%d)", path[i], path[i+1])
			}
		}
	}
	if len(tree.Nodes()) < len(terminals) {
		t.Fatal("tree too small")
	}
}

func TestSteinerTreeUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	if _, err := g.SteinerTree(0, []int{2}, nil, nil); err == nil {
		t.Fatal("unreachable terminal must error")
	}
}

// stGadgetSources returns the ST gadget and its sources in demand order.
func stGadgetSources(k int) (*Graph, []int) {
	g, demands := STGadget(k, 2, 1)
	sources := make([]int, k)
	for i := range sources {
		sources[i] = demands[i].Src
	}
	return g, sources
}

func TestMPCSingleSinkOnSTGadget(t *testing.T) {
	// On the ST gadget, MPC minimizes node+edge weight, and the ST1-like and
	// ST2-like trees cost the same under its metric (1 relay each). Which
	// one it builds is fixed (TestSteinerTreeIsDeterministic: the ST1-like
	// chain) but decided by a tie-break, not by Enetwork — exactly the
	// ambiguity Section 3 exploits.
	k := 5
	g, sources := stGadgetSources(k)
	tree, err := g.MPC(0, sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sources {
		if tree.PathTo(s) == nil {
			t.Fatalf("source %d not connected by MPC", s)
		}
	}
	// The tree should activate exactly one of the two relays i, j.
	relays := 0
	for _, v := range []int{k + 1, k + 2} {
		if tree.InTree[v] {
			relays++
		}
	}
	if relays < 1 {
		t.Fatal("MPC must use at least one relay on this gadget")
	}
}

// TestSteinerTreeIsDeterministic: equal-distance terminals attach in the
// caller's order, never in map-iteration order, so one gadget has one tree.
// All six sources start 8 from the sink; source 1 is first in the caller's
// order and its equal-cost route through relay i is relaxed before the one
// through relay j, after which every other source is 4 from the tree along
// the chain and 8 through j: MPC builds ST1's tree, the one whose Enetwork
// Eq. 6 shows growing quadratically in k — under its own metric the two
// trees cost 28 alike.
func TestSteinerTreeIsDeterministic(t *testing.T) {
	g, sources := stGadgetSources(6)
	chain := []int{-1, 7, 1, 2, 3, 4, 5, 0, -1} // sink, sources 1-6, relay i, relay j
	for run := 0; run < 300; run++ {
		tree, err := g.MPC(0, sources, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tree.Parent, chain) || tree.Cost != 28 {
			t.Fatalf("run %d: Parent = %v cost %v, want the chain through relay i %v at 28", run, tree.Parent, tree.Cost, chain)
		}
	}
}

func TestSteinerForestSharesRelay(t *testing.T) {
	k := 4
	g, demands := SFGadget(k, 2, 1)
	d, err := g.SteinerForest(demands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible(demands) {
		t.Fatal("forest infeasible")
	}
	got := g.Enetwork(demands, d, EvalConfig{TIdle: 100, TData: 1})
	want := ESF2(k, 100, 1, 2, 1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("greedy forest Enetwork = %v, want SF2's %v (share the center)", got, want)
	}
}
