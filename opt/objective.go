package opt

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"eend"
	"eend/internal/cache"
	"eend/internal/dist"
	"eend/internal/eval"
)

// Objective scores a candidate design; lower is better. Implementations
// must be deterministic — the same design always scores the same value —
// because the search's accept/reject trajectory is part of the
// reproducibility contract.
type Objective interface {
	// Name labels the objective in results ("analytic", "sim").
	Name() string
	// Evaluate scores the design. ctx bounds simulator-backed evaluation.
	Evaluate(ctx context.Context, d *Design) (float64, error)
}

// analytic is the closed-form Enetwork objective.
type analytic struct{ p *Problem }

// Analytic returns the closed-form Enetwork objective (Eq. 5): exact under
// the static model, cheap enough for thousands of inner iterations.
func (p *Problem) Analytic() Objective { return analytic{p: p} }

func (a analytic) Name() string { return "analytic" }

func (a analytic) Evaluate(_ context.Context, d *Design) (float64, error) {
	return a.p.Enetwork(d), nil
}

// SimConfig tunes the simulator-in-the-loop objective.
type SimConfig struct {
	// CacheDir, when non-empty, backs evaluations with the on-disk
	// content-addressed result cache: candidates already simulated — in
	// this run, a previous run, or a sweep — are answered from disk.
	CacheDir string
	// Store, when non-nil, is the result store to use instead of opening
	// CacheDir — any cache.Store works (tiered over remote peers,
	// in-memory for tests). Store takes precedence over CacheDir.
	Store cache.Store
	// Remote, when non-empty, runs candidate simulations on the eendd
	// workers at these base URLs instead of in process, through the dist
	// coordinator (fingerprint-checked, retried on surviving workers).
	// The search trajectory is unchanged — remote results are
	// bit-identical to local ones.
	Remote []string
	// Replicates > 1 averages that many seed-derived simulations per
	// candidate (eend.WithReplicates), scoring the replicate mean; 0 and 1
	// are one run, and a negative count is an error.
	Replicates int
}

// SimStats counts a Simulated objective's work. CacheHits covers every
// evaluation answered without a fresh simulation: in-run memoization (a
// run revisiting a candidate), disk hits (a warm cache from a previous
// run), and in-flight shares (a concurrent evaluation of the same
// fingerprint joining the one running simulation via single-flight).
// SimRuns counts actual simulator invocations — the number the warm-cache
// re-run contract drives to zero, and that single-flight keeps free of
// duplicates under parallel search.
type SimStats struct {
	Evals     int `json:"evals"`
	CacheHits int `json:"cache_hits"`
	SimRuns   int `json:"sim_runs"`
}

// Simulated is the simulator-in-the-loop objective: a candidate design is
// pinned into the problem's deployment with eend.StaticRoutes and run
// through the packet-level simulator; the score is the measured network
// energy in joules (the replicate mean when replicated). Because the pinned
// routes take part in the scenario fingerprint, the cache key covers
// scenario AND design, and evaluations deduplicate across iterations and
// across runs.
//
// Evaluate is safe for concurrent use — parallel restarts share one
// Simulated — and coalesces concurrent evaluations of the same
// fingerprint into a single simulator run.
type Simulated struct {
	p          *Problem
	ev         eval.Evaluator // the store and backend candidates are answered from
	replicates int

	mu    sync.Mutex
	calls map[string]*call // by fingerprint: in flight until done closes, settled after
	stats SimStats
}

// call is one fingerprint's evaluation. Its leader sets energy and err,
// then closes done; a failed call leaves the map, so the next Evaluate of
// its fingerprint starts afresh.
type call struct {
	done   chan struct{}
	energy float64
	err    error
}

var errLeaderPanicked = errors.New("opt: the evaluation leader panicked")

// Simulated builds the simulator-backed objective for a problem derived
// from a deployment (FromScenario); a Problem without a Scenario cannot be
// simulated.
func (p *Problem) Simulated(cfg SimConfig) (*Simulated, error) {
	if p.Scenario == nil {
		return nil, fmt.Errorf("opt: problem has no deployment scenario; build it with opt.FromScenario")
	}
	if cfg.Replicates < 0 {
		return nil, fmt.Errorf("opt: replicate count %d is not positive", cfg.Replicates)
	}
	store, err := eval.OpenStore(cfg.Store, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Simulated{p: p, calls: make(map[string]*call), replicates: cfg.Replicates}
	s.ev.Store = store
	if len(cfg.Remote) > 0 {
		s.ev.Backend = dist.NewCoordinator(cfg.Remote).RunBatch
	}
	return s, nil
}

// Name labels the objective.
func (s *Simulated) Name() string { return "sim" }

// Stats returns a snapshot of the objective's work counters.
func (s *Simulated) Stats() SimStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Evaluate scores the design by simulation, answering repeated candidates
// from the in-run memo or the result cache and coalescing concurrent
// evaluations of the same fingerprint into one simulator run (locally, or
// on the remote fleet when configured with SimConfig.Remote). A caller
// joining a run in flight stops waiting when its ctx is done; the run goes
// on under its leader's.
func (s *Simulated) Evaluate(ctx context.Context, d *Design) (float64, error) {
	sc, err := s.p.PinnedScenario(d, s.replicates)
	if err != nil {
		return 0, err
	}
	fp := sc.Fingerprint()
	s.mu.Lock()
	s.stats.Evals++
	c, joined := s.calls[fp]
	if !joined {
		// A leader that panics still releases its followers, with an
		// error: the panic travels on to whoever recovers it.
		c = &call{done: make(chan struct{}), err: errLeaderPanicked}
		s.calls[fp] = c
	}
	s.mu.Unlock()

	if joined {
		select {
		case <-c.done: // settled: a memo hit whatever ctx says
		default:
			select {
			case <-c.done:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		if c.err != nil {
			return 0, c.err
		}
		s.mu.Lock()
		s.stats.CacheHits++ // the memo, or another evaluation's run
		s.mu.Unlock()
		return c.energy, nil
	}

	var cached bool
	defer func() {
		s.mu.Lock()
		switch {
		case c.err != nil:
			delete(s.calls, fp)
		case cached:
			s.stats.CacheHits++
		default:
			s.stats.SimRuns++
		}
		s.mu.Unlock()
		close(c.done)
	}()
	var res *eend.Results
	if res, cached, c.err = s.ev.One(ctx, sc); c.err == nil {
		c.energy = energyOf(res)
	}
	return c.energy, c.err
}

// energyOf extracts the objective value from simulation results: total
// network energy, replicate-averaged when replicated.
func energyOf(res *eend.Results) float64 {
	if res.Replicates != nil {
		return res.Replicates.EnergyTotal.Mean
	}
	return res.Energy.Total()
}
