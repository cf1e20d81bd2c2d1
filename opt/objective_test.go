package opt

import (
	"context"
	"testing"
	"time"

	"eend"
	"eend/internal/eval"
)

// simProblem is a deliberately small deployment so simulator-backed tests
// stay fast: 10 clustered nodes, 3 flows, a 40 s horizon (flows start in
// the paper's 20-25 s window, so the horizon must clear it).
func simProblem(t *testing.T) *Problem {
	t.Helper()
	sc, err := eend.NewScenario(
		eend.WithSeed(3),
		eend.WithNodes(10),
		eend.WithField(400, 400),
		eend.WithTopology(eend.ClusterTopology(2, 0.1)),
		eend.WithRandomFlows(3, 2048, 128),
		eend.WithDuration(40*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimulatedNeedsScenario(t *testing.T) {
	p := clusteredProblem(t)
	p.Scenario = nil
	if _, err := p.Simulated(SimConfig{}); err == nil {
		t.Fatal("Simulated accepted a problem without a deployment scenario")
	}
}

// TestSimulatedObjectiveMemo: within one run, revisiting a candidate is a
// memo hit, not a second simulation.
func TestSimulatedObjectiveMemo(t *testing.T) {
	p := simProblem(t)
	obj, err := p.Simulated(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.SolveApproach(Approach(3)) // idle-first
	if err != nil {
		t.Fatal(err)
	}
	e1, err := obj.Evaluate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := obj.Evaluate(context.Background(), clone(d))
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("same design scored %g then %g", e1, e2)
	}
	st := obj.Stats()
	if st.Evals != 2 || st.SimRuns != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 2 evals, 1 sim run, 1 cache hit", st)
	}
	if e1 <= 0 {
		t.Fatalf("simulated energy %g, want positive joules", e1)
	}
}

// TestWarmCacheZeroSimRuns is the acceptance criterion's cache half: a
// re-run of the same seeded search against a warm cache must perform zero
// new simulator invocations — every candidate the deterministic trajectory
// revisits is answered from disk. The simulator entry point is swapped out
// on the second run, so a stray invocation fails loudly rather than just
// skewing a counter.
func TestWarmCacheZeroSimRuns(t *testing.T) {
	p := simProblem(t)
	dir := t.TempDir()
	opts := Options{Algorithm: Anneal, Seed: 11, Iterations: 12}

	cold, err := p.Simulated(SimConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p.Search(context.Background(), cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().SimRuns == 0 {
		t.Fatal("cold run performed no simulations")
	}

	defer func() { eval.OnSimulate = nil }()
	eval.OnSimulate = func(*eend.Scenario) { t.Error("warm-cache search invoked the simulator") }

	warm, err := p.Simulated(SimConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.Search(context.Background(), warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.SimRuns != 0 {
		t.Fatalf("warm run performed %d simulations, want 0", st.SimRuns)
	}
	if st.CacheHits == 0 || st.Evals == 0 {
		t.Fatalf("warm run stats %+v, want all evaluations answered from cache", st)
	}
	if res1.BestFingerprint != res2.BestFingerprint || res1.BestEnergy != res2.BestEnergy {
		t.Fatalf("warm re-run diverged: %s/%g vs %s/%g",
			res1.BestFingerprint, res1.BestEnergy, res2.BestFingerprint, res2.BestEnergy)
	}
	if res2.Sim == nil || res2.Sim.SimRuns != 0 {
		t.Fatalf("Result.Sim = %+v, want zero sim runs reported", res2.Sim)
	}
}

// TestSimulatedReplicates: a replicated objective scores the replicate
// mean and fingerprints differently from the single-run objective.
func TestSimulatedReplicates(t *testing.T) {
	p := simProblem(t)
	d, err := p.SolveApproach(Approach(3))
	if err != nil {
		t.Fatal(err)
	}
	single, err := p.Simulated(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulated(SimConfig{Replicates: 2})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := single.Evaluate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := rep.Evaluate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatalf("replicated mean %g identical to single run %g (suspicious)", e2, e1)
	}
}
