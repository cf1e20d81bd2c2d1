package bound

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"eend/internal/core"
)

// testInstance is one randomly generated small design problem.
type testInstance struct {
	g       *core.Graph
	demands []core.Demand
	eval    core.EvalConfig
}

// randInstance draws a connected instance with at most 8 nodes: a random
// spanning path plus extra random edges, random positive edge energies,
// node idle weights (some zero), and 1-3 demands with mixed rates.
func randInstance(seed uint64) testInstance {
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	n := 4 + rng.IntN(5) // 4..8 nodes
	g := core.NewGraph(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1], 0.1+rng.Float64())
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.35 {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.8 {
			g.SetNodeWeight(v, rng.Float64()*2)
		}
	}
	k := 1 + rng.IntN(3)
	var demands []core.Demand
	for i := 0; i < k; i++ {
		src := rng.IntN(n)
		dst := rng.IntN(n)
		for dst == src {
			dst = rng.IntN(n)
		}
		var rate float64
		if rng.Float64() < 0.5 {
			rate = float64(1 + rng.IntN(4))
		}
		demands = append(demands, core.Demand{Src: src, Dst: dst, Rate: rate})
	}
	return testInstance{
		g:       g,
		demands: demands,
		eval: core.EvalConfig{
			TIdle:            1 + rng.Float64()*10,
			TData:            0.1 + rng.Float64(),
			PacketsPerDemand: 1,
		},
	}
}

// bestHeuristic returns the best Section 4 heuristic energy — the
// "best found" a search would start from.
func bestHeuristic(t *testing.T, ti testInstance) float64 {
	t.Helper()
	best := math.Inf(1)
	for _, a := range []core.Approach{core.CommFirst, core.Joint, core.IdleFirst} {
		d, err := ti.g.Solve(ti.demands, a)
		if err != nil {
			continue
		}
		if e := ti.g.Enetwork(ti.demands, d, ti.eval); e < best {
			best = e
		}
	}
	if math.IsInf(best, 1) {
		t.Fatal("no heuristic found a design on a routable instance")
	}
	return best
}

// TestBoundSandwich is the core soundness property: on ~50 seeded random
// instances small enough to brute-force, Bound ≤ optimal ≤ BestFound for
// both tiers.
func TestBoundSandwich(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		ti := randInstance(seed)
		_, optimal, err := ti.g.ExactSolve(ti.demands, ti.eval)
		if err != nil {
			t.Fatalf("seed %d: exact solve: %v", seed, err)
		}
		best := bestHeuristic(t, ti)
		if optimal > best+1e-9 {
			t.Fatalf("seed %d: optimal %.9f above best found %.9f", seed, optimal, best)
		}
		for _, tier := range []Tier{Combinatorial, Lagrangian} {
			r, err := Compute(ti.g, ti.demands, Options{Tier: tier, Eval: ti.eval, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d tier %v: %v", seed, tier, err)
			}
			// Tolerance covers float summation noise only; a genuinely
			// invalid bound overshoots by far more.
			if r.Value > optimal*(1+1e-9)+1e-9 {
				t.Errorf("seed %d tier %v: bound %.12f exceeds optimal %.12f", seed, tier, r.Value, optimal)
			}
			if r.Value <= 0 {
				t.Errorf("seed %d tier %v: bound %.12f not positive", seed, tier, r.Value)
			}
		}
	}
}

// TestLagrangianTraceMonotone asserts the reported best bound never
// decreases over the subgradient iterations, and every iterate is itself a
// valid bound (≤ optimal).
func TestLagrangianTraceMonotone(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		ti := randInstance(seed)
		_, optimal, err := ti.g.ExactSolve(ti.demands, ti.eval)
		if err != nil {
			t.Fatalf("seed %d: exact solve: %v", seed, err)
		}
		r, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: seed, Trace: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Trace) == 0 {
			t.Fatalf("seed %d: Trace requested but empty", seed)
		}
		prev := math.Inf(-1)
		for _, p := range r.Trace {
			if p.Best < prev {
				t.Fatalf("seed %d iter %d: best bound decreased %.12f -> %.12f", seed, p.Iter, prev, p.Best)
			}
			prev = p.Best
			if p.Value > optimal*(1+1e-9)+1e-9 {
				t.Fatalf("seed %d iter %d: iterate %.12f exceeds optimal %.12f", seed, p.Iter, p.Value, optimal)
			}
		}
		if last := r.Trace[len(r.Trace)-1].Best; last != r.Value {
			t.Fatalf("seed %d: trace best %.12f != result value %.12f", seed, last, r.Value)
		}
	}
}

// TestLagrangianDeterministic asserts a fixed seed reproduces the trace
// bit for bit, and that distinct seeds are allowed to differ.
func TestLagrangianDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		ti := randInstance(seed)
		o := Options{Tier: Lagrangian, Eval: ti.eval, Seed: 42, Trace: true}
		a, err := Compute(ti.g, ti.demands, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Compute(ti.g, ti.demands, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: identical options produced different results", seed)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: fingerprint mismatch on identical runs", seed)
		}
		if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("seed %d: bound not bit-identical", seed)
		}
	}
}

// pinnedTraceFingerprint is the golden fingerprint of the seed-1 instance's
// Lagrangian trace. It pins the determinism contract across refactors: any
// change to the step schedule, summation order or trace encoding must be
// deliberate and update this constant.
const pinnedTraceFingerprint = "eb3626bbb32c68591baae8830a311718fc0f66aa08780ffcf5e768d964b5b530"

func TestLagrangianFingerprintPinned(t *testing.T) {
	ti := randInstance(1)
	r, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Fingerprint(); got != pinnedTraceFingerprint {
		t.Fatalf("pinned Lagrangian trace fingerprint changed:\n got %s\nwant %s", got, pinnedTraceFingerprint)
	}
}

// TestComputeValidation covers the error paths: no demands, out-of-range
// endpoints, unroutable demands.
func TestComputeValidation(t *testing.T) {
	g := core.NewGraph(4)
	g.AddEdge(0, 1, 1)
	eval := core.EvalConfig{TIdle: 1, TData: 1}
	if _, err := Compute(g, nil, Options{Eval: eval}); err == nil {
		t.Error("no demands: want error")
	}
	if _, err := Compute(g, []core.Demand{{Src: 0, Dst: 9}}, Options{Eval: eval}); err == nil {
		t.Error("out-of-range endpoint: want error")
	}
	// Node 3 is isolated: demand 0->3 has no route, so no feasible design
	// exists and there is nothing to bound.
	if _, err := Compute(g, []core.Demand{{Src: 0, Dst: 3}}, Options{Eval: eval}); err == nil {
		t.Error("unroutable demand: want error")
	}
	// Weights no Enetwork can have: before the check a negative TData or
	// packet count panicked in Dijkstra, a NaN TData read as unroutable, and
	// a negative or NaN TIdle returned a "bound" of 2 on the chain 0-1-2,
	// whose one design costs 1 at TIdle -1.
	chain := core.NewGraph(3)
	chain.AddEdge(0, 1, 1)
	chain.AddEdge(1, 2, 1)
	chain.SetNodeWeight(1, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, e := range []core.EvalConfig{
		{TIdle: 1, TData: -1}, {TIdle: 1, TData: nan}, {TIdle: 1, TData: inf},
		{TIdle: -1, TData: 1}, {TIdle: nan, TData: 1}, {TIdle: inf, TData: 1}, {TIdle: math.Inf(-1), TData: 1},
		{TIdle: 1, TData: 1, PacketsPerDemand: -2}, {TIdle: 1, TData: 1, PacketsPerDemand: nan},
		{TIdle: 1, TData: 1, PacketsPerDemand: inf},
	} {
		for _, tier := range []Tier{Combinatorial, Lagrangian} {
			if r, err := Compute(chain, []core.Demand{{Src: 0, Dst: 2}}, Options{Tier: tier, Eval: e}); err == nil {
				t.Errorf("%+v tier %v: bound %v, want an error", e, tier, r.Value)
			}
		}
	}
}

// TestNegativeWeightPanicsOnCaller: a negative edge weight panics inside
// Dijkstra. Inline (GOMAXPROCS 1) or fanned out over the scheduler (2, 4),
// the panic reaches Compute's caller with Dijkstra's value, from the
// combinatorial pass and from a Lagrangian one, and a recover there keeps
// the process alive.
func TestNegativeWeightPanicsOnCaller(t *testing.T) {
	// The combinatorial pass relaxes 1->2 on its way to 2.
	chain := core.NewGraph(3)
	chain.AddEdge(0, 1, 1)
	chain.AddEdge(1, 2, -1)
	chain.SetNodeWeight(1, 1)
	// 0->3 over relay 1 costs 2, over relay 2 costs 2.6, and 2 has a
	// negative edge to 4. Every combinatorial pass and Section 4 heuristic
	// settles 3 before it pops 2; once the ascent prices relay 1 at ~1, the
	// Lagrangian pass pops 2 (at 2.5) first and relaxes the negative edge.
	diamond := core.NewGraph(5)
	diamond.AddEdge(0, 1, 1)
	diamond.AddEdge(1, 3, 1)
	diamond.AddEdge(0, 2, 2.5)
	diamond.AddEdge(2, 3, 0.1)
	diamond.AddEdge(2, 4, -1)
	diamond.SetNodeWeight(1, 1)
	diamond.SetNodeWeight(2, 1)
	eval := core.EvalConfig{TIdle: 1, TData: 1}
	cases := []struct {
		name   string
		g      *core.Graph
		dst    int
		tier   Tier
		panics bool
	}{
		{"combinatorial pass", chain, 2, Combinatorial, true},
		{"diamond, combinatorial tier", diamond, 3, Combinatorial, false},
		{"Lagrangian pass", diamond, 3, Lagrangian, true},
	}
	const want = "core: negative cost in Dijkstra"
	for _, procs := range []int{1, 2, 4} {
		for _, c := range cases {
			old := runtime.GOMAXPROCS(procs)
			got := func() (v any) {
				defer func() { v = recover() }()
				Compute(c.g, []core.Demand{{Src: 0, Dst: c.dst}, {Src: 0, Dst: c.dst}}, Options{Tier: c.tier, Eval: eval})
				return nil
			}()
			runtime.GOMAXPROCS(old)
			if c.panics && got != want || !c.panics && got != nil {
				t.Errorf("GOMAXPROCS %d, %s: recovered %v, want panics=%v with %q", procs, c.name, got, c.panics, want)
			}
		}
	}
}

// TestParseTier round-trips every advertised tier name.
func TestParseTier(t *testing.T) {
	for _, name := range Tiers() {
		tier, err := ParseTier(name)
		if err != nil {
			t.Fatalf("ParseTier(%q): %v", name, err)
		}
		if tier.String() != name {
			t.Fatalf("ParseTier(%q).String() = %q", name, tier.String())
		}
	}
	if _, err := ParseTier("nope"); err == nil {
		t.Error("ParseTier(nope): want error")
	}
}
