package eend

import (
	"context"
	"fmt"

	"eend/internal/exec"
	"eend/internal/network"
)

// WithReplicates fans the scenario out over n seed-derived replicates
// (default 1, a single run). The paper's figures average 5-10 independent
// runs per point; a replicated Run executes the scenario once per derived
// seed (see ReplicateSeed), returns the first replicate's Results — which
// are bit-identical to an unreplicated run of the base seed — and attaches
// the mean and 95% confidence interval of every headline metric as
// Results.Replicates.
func WithReplicates(n int) Option {
	return func(b *builder) error {
		if n <= 0 {
			return fmt.Errorf("eend: replicate count %d is not positive", n)
		}
		b.replicates = n
		return nil
	}
}

// ReplicateSeed derives the seed of replicate k (0-based) from a base
// seed. Replicate 0 is the base seed itself; later replicates are drawn
// through a splitmix64 finalizer so neighbouring base seeds never share
// derived seeds. The derivation is part of the reproducibility contract.
func ReplicateSeed(base uint64, k int) uint64 { return network.ReplicateSeed(base, k) }

// Replicates returns the scenario's replicate count (1 when WithReplicates
// was not given).
func (s *Scenario) Replicates() int {
	if s.replicates <= 0 {
		return 1
	}
	return s.replicates
}

// Replicate materializes replicate k as a standalone single-run Scenario:
// the original options are re-applied under the derived seed, so
// seed-dependent draws (uniform placement, topology generation, random
// flow endpoints, start jitter) are redrawn per replicate — each replicate
// is a fresh random instance of the same configuration, the paper's
// methodology for its averaged points. Replicate scenarios fingerprint
// independently, which is what lets the evaluation path cache replicated
// scenarios one seed at a time.
func (s *Scenario) Replicate(k int) (*Scenario, error) {
	n := s.Replicates()
	if k < 0 || k >= n {
		return nil, fmt.Errorf("eend: replicate %d out of range [0,%d)", k, n)
	}
	if n == 1 {
		return s, nil
	}
	opts := make([]Option, 0, len(s.opts)+2)
	opts = append(opts, s.opts...)
	opts = append(opts, WithSeed(ReplicateSeed(s.sc.Seed, k)), WithReplicates(1))
	return NewScenario(opts...)
}

// runReplicated fans the replicates out on the ambient execution
// scheduler (the enclosing RunBatch's pool, or the process-wide default)
// and folds the outcomes with an ordered merge. Each replicate is an
// independent simulation under its seed derived at submission time, so
// the fold is bit-identical at any worker count; replicate items are
// Nested, so an in-progress scenario's replicates finish before a batch
// starts fresh scenarios.
func (s *Scenario) runReplicated(ctx context.Context) (*Results, error) {
	n := s.Replicates()
	seeds := make([]uint64, n)
	items := make([]exec.Item, n)
	for k := 0; k < n; k++ {
		rep, err := s.Replicate(k)
		if err != nil {
			return nil, err
		}
		seeds[k] = rep.Seed()
		items[k] = exec.Item{
			Index:  k,
			Nested: true,
			// The replicate's own Run, so a traced run carries one sim
			// span per replicate.
			Do: func(ctx context.Context) (any, error) { return rep.Run(ctx) },
		}
	}
	runs := make([]*Results, n)
	for k, r := range exec.From(ctx).Gather(ctx, items) {
		if r.Err != nil {
			// Mirror the sequential contract: the lowest-index failure is
			// the run's error, whatever order the replicates finished in.
			return nil, r.Err
		}
		runs[k] = r.Value.(*Results)
	}
	out := *runs[0]
	out.Replicates = AggregateReplicates(seeds, runs)
	return &out, nil
}

// AggregateReplicates folds the Results of replicated runs (in replicate
// order, with their derived seeds) into the mean/CI95 Summary the paper's
// figures report per point. Most callers get this for free from Run; the
// evaluation path uses it directly to fold per-seed cache hits.
func AggregateReplicates(seeds []uint64, runs []*Results) *Summary {
	return network.AggregateReplicates(seeds, runs)
}
