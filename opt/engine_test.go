package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"eend"
	"eend/internal/core"
)

// TestEngineDifferential pins the incremental engine bit-identical to the
// retained full-recompute reference: same accept/reject trajectory (every
// step's move, energy bits, best bits, acceptance and temperature), same
// energies, same final fingerprint — across all three drivers and several
// seeds, and on an instance (400 nodes, 30 demands) whose relays are shared
// enough that a power-down reroutes four demands on average, each seeing
// the relays the one before recruited. This is the
// determinism contract's entry 9; it runs under the race job too.
func TestEngineDifferential(t *testing.T) {
	p := clusteredProblem(t)
	for _, alg := range []Algorithm{Greedy, Anneal, Restart} {
		for _, seed := range []uint64{1, 5, 9} {
			t.Run(fmt.Sprintf("%s/seed=%d", alg, seed), func(t *testing.T) {
				enginesAgree(t, p, Options{Algorithm: alg, Seed: seed, Iterations: 200, Trace: true})
			})
		}
	}
	dense := scenarioProblem(t, eend.WithSeed(4), eend.WithNodes(400), eend.WithField(2000, 2000),
		eend.WithTopology(eend.UniformTopology()), eend.WithRandomFlows(30, 2048, 128))
	for _, alg := range []Algorithm{Greedy, Anneal} {
		t.Run(fmt.Sprintf("dense/%s", alg), func(t *testing.T) {
			enginesAgree(t, dense, Options{Algorithm: alg, Seed: 2, Iterations: 300, Trace: true})
		})
	}
}

// TestEngineDifferentialField1k holds the engines together at the size the
// bench harness searches: a 3,000-step anneal of field-1k with 40 flows, at
// three seeds.
func TestEngineDifferentialField1k(t *testing.T) {
	if testing.Short() {
		t.Skip("three 3,000-step searches of a 1,000-node instance on the reference engine")
	}
	p := field1kProblem(t)
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			enginesAgree(t, p, Options{Algorithm: Anneal, Seed: seed, Iterations: 3000})
		})
	}
}

func scenarioProblem(tb testing.TB, opts ...eend.Option) *Problem {
	tb.Helper()
	sc, err := eend.NewScenario(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := FromScenario(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// enginesAgree runs one search on each engine and requires bit-equal
// results, step by step when o.Trace is set.
func enginesAgree(t *testing.T, p *Problem, o Options) {
	t.Helper()
	run := func(reference bool) *Result {
		o.reference = reference
		res, err := p.Search(context.Background(), p.Analytic(), o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, ref := run(false), run(true)
	if math.Float64bits(inc.Initial) != math.Float64bits(ref.Initial) {
		t.Fatalf("initial energies differ: %v vs %v", inc.Initial, ref.Initial)
	}
	if len(inc.Trajectory) != len(ref.Trajectory) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(inc.Trajectory), len(ref.Trajectory))
	}
	for i := range inc.Trajectory {
		a, b := inc.Trajectory[i], ref.Trajectory[i]
		if a.Iter != b.Iter || a.Move != b.Move || a.Accepted != b.Accepted ||
			math.Float64bits(a.Energy) != math.Float64bits(b.Energy) ||
			math.Float64bits(a.Best) != math.Float64bits(b.Best) ||
			math.Float64bits(a.Temp) != math.Float64bits(b.Temp) {
			t.Fatalf("step %d differs:\nincremental %+v\nreference   %+v", i, a, b)
		}
	}
	if math.Float64bits(inc.BestEnergy) != math.Float64bits(ref.BestEnergy) {
		t.Fatalf("best energies differ: %v vs %v", inc.BestEnergy, ref.BestEnergy)
	}
	if inc.BestFingerprint != ref.BestFingerprint {
		t.Fatalf("final fingerprints differ: %s vs %s", inc.BestFingerprint, ref.BestFingerprint)
	}
	if inc.Accepted != ref.Accepted || inc.Rejected != ref.Rejected {
		t.Fatalf("accept/reject counts differ: %d/%d vs %d/%d",
			inc.Accepted, inc.Rejected, ref.Accepted, ref.Rejected)
	}
}

// TestEngineDifferentialNonAnalytic drives the incremental engine's
// generic-objective path (no ledger fast path: the live design is handed
// to the objective) and pins it against the reference too.
func TestEngineDifferentialNonAnalytic(t *testing.T) {
	p := clusteredProblem(t)
	obj := funcObjective{name: "wrapped", f: func(d *Design) float64 { return p.Enetwork(d) }}
	run := func(reference bool) *Result {
		res, err := p.Search(context.Background(), obj, Options{
			Algorithm: Anneal, Seed: 3, Iterations: 150, Trace: true, reference: reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, ref := run(false), run(true)
	if inc.BestFingerprint != ref.BestFingerprint ||
		math.Float64bits(inc.BestEnergy) != math.Float64bits(ref.BestEnergy) ||
		len(inc.Trajectory) != len(ref.Trajectory) {
		t.Fatalf("engines diverge under a non-analytic objective: %s/%v/%d vs %s/%v/%d",
			inc.BestFingerprint, inc.BestEnergy, len(inc.Trajectory),
			ref.BestFingerprint, ref.BestEnergy, len(ref.Trajectory))
	}
}

type funcObjective struct {
	name string
	f    func(d *Design) float64
}

func (o funcObjective) Name() string                                           { return o.name }
func (o funcObjective) Evaluate(_ context.Context, d *Design) (float64, error) { return o.f(d), nil }

// undoInstance builds one seeded problem for the apply/undo property test.
func undoInstance(t *testing.T, seed uint64) *Problem {
	t.Helper()
	return scenarioProblem(t,
		eend.WithSeed(seed),
		eend.WithNodes(14+int(seed%8)),
		eend.WithField(450, 450),
		eend.WithTopology(eend.ClusterTopology(2, 0.3)),
		eend.WithRandomFlows(5+int(seed%4), 2048, 128),
		eend.WithDuration(200*time.Second),
	)
}

// ledgerMatches cross-checks the engine's ledger against a fresh one built
// from the current design: refcounts, idle prices and edge uses must be
// exactly equal.
func ledgerMatches(t *testing.T, m *incEngine, where string) {
	t.Helper()
	chk := m.p.Graph.NewLedger(m.p.Demands, m.p.Eval)
	chk.Reset(m.cur)
	for v := 0; v < m.p.Graph.Len(); v++ {
		if m.led.RefCount(v) != chk.RefCount(v) {
			t.Fatalf("%s: refcount[%d] = %d, fresh ledger says %d", where, v, m.led.RefCount(v), chk.RefCount(v))
		}
		if math.Float64bits(m.led.Price(v)) != math.Float64bits(chk.Price(v)) {
			t.Fatalf("%s: price[%d] = %v, fresh ledger says %v", where, v, m.led.Price(v), chk.Price(v))
		}
	}
	for u := 0; u < m.p.Graph.Len(); u++ {
		for v := u + 1; v < m.p.Graph.Len(); v++ {
			if m.led.EdgeUse(u, v) != chk.EdgeUse(u, v) {
				t.Fatalf("%s: edgeUse{%d,%d} = %d, fresh ledger says %d", where, u, v, m.led.EdgeUse(u, v), chk.EdgeUse(u, v))
			}
		}
	}
	if got, want := m.led.Energy(m.cur), m.p.Enetwork(m.cur); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: ledger energy %v != Enetwork %v", where, got, want)
	}
}

// TestMoveUndoRestoresExactly is the apply/undo property test: over 20
// seeded instances, every rejected move — rewires, swaps, power-down
// batches — must restore the design, the ledger and the refcounts exactly
// (fingerprint-equal, counter-equal, energy bit-equal). Committed moves
// must leave the ledger consistent with a fresh rebuild.
func TestMoveUndoRestoresExactly(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := undoInstance(t, seed)
			init, _, err := p.bestHeuristic()
			if err != nil {
				t.Fatal(err)
			}
			m := newIncEngine(p, init)
			obj := p.Analytic()
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			for k := 0; k < 80; k++ {
				fpBefore := Fingerprint(m.cur)
				eBefore := m.led.Energy(m.cur)
				var staged bool
				switch k % 3 {
				case 0:
					staged = m.tryRewire(rng.IntN(len(p.Demands)))
				case 1:
					staged = m.trySwap(rng.IntN(len(p.Demands)), rng)
				default:
					if rel := m.relays(); len(rel) > 0 {
						staged = m.tryPowerDown(rel[rng.IntN(len(rel))])
					}
				}
				if !staged {
					// A failed proposal (including a failed power-down
					// batch) must leave no trace at all.
					if fp := Fingerprint(m.cur); fp != fpBefore {
						t.Fatalf("step %d: failed proposal mutated the design", k)
					}
					ledgerMatches(t, m, fmt.Sprintf("step %d (failed proposal)", k))
					continue
				}
				if _, err := m.evaluate(ctx, obj); err != nil {
					t.Fatal(err)
				}
				if k%4 == 0 {
					m.commit()
					ledgerMatches(t, m, fmt.Sprintf("step %d (commit)", k))
					continue
				}
				m.revert()
				if fp := Fingerprint(m.cur); fp != fpBefore {
					t.Fatalf("step %d: revert did not restore the design\nbefore %s\nafter  %s", k, fpBefore, fp)
				}
				if e := m.led.Energy(m.cur); math.Float64bits(e) != math.Float64bits(eBefore) {
					t.Fatalf("step %d: revert drifted the energy: %v -> %v", k, eBefore, e)
				}
				ledgerMatches(t, m, fmt.Sprintf("step %d (revert)", k))
			}
		})
	}
}

// TestPowerDownBatchFailureRevertsPrefix forces the specific failure the
// batch undo log exists for: a power-down that re-routes one demand
// successfully and then hits an unroutable one must roll the staged prefix
// back exactly.
func TestPowerDownBatchFailureRevertsPrefix(t *testing.T) {
	g := core.NewGraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 3, 10)
	g.AddEdge(3, 2, 10)
	g.AddEdge(1, 4, 1) // node 4 hangs off relay 1: no detour exists
	demands := []Demand{{Src: 0, Dst: 2}, {Src: 4, Dst: 0}}
	p := &Problem{Graph: g, Demands: demands, Eval: EvalConfig{TIdle: 1, TData: 1, PacketsPerDemand: 1}}
	d0 := &Design{Routes: [][]int{{0, 1, 2}, {4, 1, 0}}}
	m := newIncEngine(p, d0)

	// Sanity: demand 0 can detour around relay 1 (so the batch stages it),
	// demand 1 cannot (so the batch must fail and roll back).
	if _, ok := m.reroute(movePowerDown, 0, 1, 1); !ok {
		t.Fatal("demand 0 should have a detour around node 1")
	}
	if _, ok := m.reroute(movePowerDown, 1, 1, 1); ok {
		t.Fatal("demand 1 should be unroutable without node 1")
	}

	fpBefore := Fingerprint(m.cur)
	eBefore := m.led.Energy(m.cur)
	if m.tryPowerDown(1) {
		t.Fatal("power-down of node 1 should fail: demand 1 has no alternative")
	}
	if len(m.staged) != 0 {
		t.Fatalf("failed batch left %d staged records", len(m.staged))
	}
	if fp := Fingerprint(m.cur); fp != fpBefore {
		t.Fatalf("failed batch mutated the design:\nbefore %s\nafter  %s", fpBefore, fp)
	}
	if e := m.led.Energy(m.cur); math.Float64bits(e) != math.Float64bits(eBefore) {
		t.Fatalf("failed batch drifted the energy: %v -> %v", eBefore, e)
	}
	ledgerMatches(t, m, "failed power-down batch")

	// And the success case: without the trapped demand the same power-down
	// stages the detour and commits cleanly.
	p2 := &Problem{Graph: g, Demands: demands[:1], Eval: p.Eval}
	m2 := newIncEngine(p2, &Design{Routes: [][]int{{0, 1, 2}}})
	if !m2.tryPowerDown(1) {
		t.Fatal("power-down of node 1 should succeed with only demand 0")
	}
	m2.commit()
	if !routesEqual(m2.cur.Routes[0], []int{0, 3, 2}) {
		t.Fatalf("committed detour = %v, want [0 3 2]", m2.cur.Routes[0])
	}
	ledgerMatches(t, m2, "committed power-down")
}
