package opt

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"eend"
	"eend/internal/exec"
)

// benchProblem is the scheduler-bench deployment: big enough that each
// simulator-backed evaluation carries real work, small enough that an
// 8-restart search finishes in seconds.
func benchProblem(b testing.TB) *Problem {
	b.Helper()
	return scenarioProblem(b,
		eend.WithSeed(2),
		eend.WithNodes(24),
		eend.WithField(550, 550),
		eend.WithTopology(eend.ClusterTopology(4, 0.12)),
		eend.WithRandomFlows(10, 2048, 128),
		eend.WithDuration(40*time.Second),
	)
}

// BenchmarkRestartSearchSim is the scheduler's headline benchmark: an
// 8-restart search under the Simulated objective, sequential versus
// parallel. The workers=1 and workers=4 cases produce bit-identical
// results (TestRestartDeterministicAcrossWorkers); on a multi-core
// machine the parallel case should approach a 4x wall-clock speedup,
// since restarts are independent work items on the execution scheduler.
// Each iteration uses a fresh objective (no disk cache), so every
// iteration performs the full set of unique simulations.
func BenchmarkRestartSearchSim(b *testing.B) {
	p := benchProblem(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := p.Simulated(SimConfig{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.Search(context.Background(), sim, Options{
					Algorithm: Restart, Seed: 1, Iterations: 64, Restarts: 8,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					st := sim.Stats()
					b.ReportMetric(float64(st.SimRuns), "sim_runs")
					b.ReportMetric(res.BestEnergy, "best_J")
				}
			}
		})
	}
}

// field1kProblem is the bench harness's search-analytic instance: the
// field-1k preset with 40 flows.
func field1kProblem(tb testing.TB) *Problem {
	tb.Helper()
	preset, err := eend.ParseFieldPreset("field-1k")
	if err != nil {
		tb.Fatal(err)
	}
	return scenarioProblem(tb, append(preset.Options(), eend.WithSeed(1),
		eend.WithRandomFlows(40, 4096, 128), eend.WithDuration(60*time.Second))...)
}

// BenchmarkSearchStep measures the steady-state inner step of the
// incremental kernel: propose (the priced shortest-path kernel over the
// marginal-cost graph), score through the term ledger, and undo — the hot
// path every driver spends its iterations in — on the 24-node scheduler
// instance and on field-1k, the size the bench harness searches. After
// warmup grows the engine's scratch buffers to their high-water marks, the
// steady state must run at zero allocations per step; CI gates on both
// sizes via benchjson -assert-zero-allocs.
func BenchmarkSearchStep(b *testing.B) {
	b.Run("nodes=24", func(b *testing.B) { benchSearchStep(b, benchProblem(b)) })
	b.Run("nodes=1000", func(b *testing.B) { benchSearchStep(b, field1kProblem(b)) })
}

func benchSearchStep(b *testing.B, p *Problem) {
	init, _, err := p.bestHeuristic()
	if err != nil {
		b.Fatal(err)
	}
	m := newIncEngine(p, init)
	ctx := context.Background()
	obj := p.Analytic()
	rng := rand.New(rand.NewPCG(1, 0xbe7c))
	step := func() {
		var staged bool
		switch k := rng.IntN(10); {
		case k < 5:
			staged = m.tryRewire(rng.IntN(len(p.Demands)))
		case k < 8:
			staged = m.trySwap(rng.IntN(len(p.Demands)), rng)
		default:
			if rel := m.relays(); len(rel) > 0 {
				staged = m.tryPowerDown(rel[rng.IntN(len(rel))])
			}
		}
		if !staged {
			return
		}
		if _, err := m.evaluate(ctx, obj); err != nil {
			b.Fatal(err)
		}
		// Always revert: the design never drifts, so every iteration
		// measures the same steady-state work.
		m.revert()
	}
	for i := 0; i < 512; i++ {
		step() // warmup: let scratch buffers reach their final capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The process-wide scheduler is sized at its first use. Size it at package
// init, at the binary's GOMAXPROCS, before -cpu lowers GOMAXPROCS for the
// first run: BenchmarkBoundLagrange-2 must have two workers to fan out to.
var _ = exec.Default()

// BenchmarkBoundLagrange is the bound search-analytic certifies with: the
// Lagrangian tier on field-1k with 40 flows, 20 subgradient iterations.
// Run it with -cpu 1,2: at one processor each pass prices its demands
// inline, at two it fans them out over the process-wide scheduler, so the
// two rows' ns/op read the fan-out's speed-up (the Result is the same).
func BenchmarkBoundLagrange(b *testing.B) {
	p := field1kProblem(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.Bound(BoundOptions{Tier: BoundLagrange, Seed: 1, Iterations: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestartSearchAnalytic isolates scheduler overhead: with the
// closed-form objective each evaluation is microseconds, so this measures
// the cost of fanning restarts out and merging them back.
func BenchmarkRestartSearchAnalytic(b *testing.B) {
	p := benchProblem(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Search(context.Background(), p.Analytic(), Options{
					Algorithm: Restart, Seed: 1, Iterations: 120, Restarts: 8,
					Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
