package eend

import (
	"context"
	"sync"

	"eend/internal/exec"
	"eend/internal/network"
)

// BatchResult is one completed scenario within a RunBatch.
type BatchResult struct {
	// Index is the scenario's position in the slice passed to RunBatch.
	Index int `json:"index"`
	// Scenario is the scenario that produced this result.
	Scenario *Scenario `json:"-"`
	// Results is nil when Err is set.
	Results *Results `json:"results,omitempty"`
	// Err reports a failed or cancelled run.
	Err error `json:"-"`
	// Cached reports that Results was shared from the run of an identical
	// scenario (same fingerprint) earlier in the batch instead of a fresh
	// simulation.
	Cached bool `json:"cached,omitempty"`
}

// batchConfig holds RunBatch tuning.
type batchConfig struct {
	workers int
}

// BatchOption tunes RunBatch.
type BatchOption func(*batchConfig)

// Workers bounds the number of scenarios simulated concurrently; n <= 0
// (and the default) means GOMAXPROCS, and requests beyond the runtime's
// hard cap are clamped (see internal/exec.Workers — the one normalization
// every layer shares). Each scenario owns its simulator, so results are
// independent of the worker count.
func Workers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// RunBatch executes the scenarios on the shared execution runtime's
// bounded scheduler and streams each result over the returned channel as
// it completes (not in input order; use BatchResult.Index to correlate).
// The channel is closed once every dispatched scenario has delivered its
// result. Cancelling ctx aborts in-flight runs (which then arrive as
// results with Err set) and stops dispatching queued ones; scenarios never
// dispatched simply don't appear.
//
// Scenarios with equal fingerprints share one simulator run: the batch is
// grouped by Fingerprint() before anything is submitted, the lowest index
// of each group runs, and every later duplicate is delivered right after
// it with Cached set and its own unaliased copy of the Results (or the
// leader's error). The sharing is a property of the input, so the Cached
// flags and the number of runs are the same at every worker count. A
// duplicate counts as queued until its leader lands: one whose leader is
// still running when ctx is cancelled was never dispatched.
//
// The channel is buffered for the whole batch, and each result goes in
// from the run that produced it, so no worker ever waits on the consumer
// and every delivered result stays readable however late the consumer
// reads. Abandoning the channel leaks nothing, with or without cancelling
// ctx first: the batch's goroutines exit once its dispatched runs are
// done (cancelling only makes that sooner), and the unread results go
// with the channel.
//
// Replicated scenarios fan their replicates out on the same scheduler, so
// the batch's worker budget holds end to end.
func RunBatch(ctx context.Context, scenarios []*Scenario, opts ...BatchOption) <-chan BatchResult {
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	sched := exec.New(cfg.workers)
	// Nested layers (replicate fan-out, search evaluation) submit to the
	// batch's scheduler instead of spinning their own.
	ctx = exec.With(ctx, sched)

	// One item per distinct fingerprint, run by leaders[k], the lowest
	// index carrying it; dups lists, by leader index, the later scenarios
	// that share its run.
	items, leaders := make([]exec.Item, 0, len(scenarios)), make([]int, 0, len(scenarios))
	dups := make([][]int, len(scenarios))
	leader := make(map[string]int, len(scenarios))
	out := make(chan BatchResult, len(scenarios))
	var mu sync.Mutex
	// land sends leader i's result and, unless ctx is cancelled (they were
	// then never dispatched), its duplicates' right behind it. Copies are
	// taken before the leader is handed over: from then on its Results
	// belong to the consumer.
	land := func(i int, res *Results, err error) {
		group := []BatchResult{{Index: i, Scenario: scenarios[i], Results: res, Err: err}}
		for _, d := range dups[i] {
			if ctx.Err() != nil {
				break
			}
			br := BatchResult{Index: d, Scenario: scenarios[d], Err: err, Cached: true}
			if res != nil {
				br.Results = network.Copy(res)
			}
			group = append(group, br)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, br := range group {
			out <- br
		}
	}
	for i, sc := range scenarios {
		fp := sc.Fingerprint()
		if l, ok := leader[fp]; ok {
			dups[l] = append(dups[l], i)
			continue
		}
		leader[fp] = i
		leaders = append(leaders, i)
		items = append(items, exec.Item{
			Index: len(items),
			Do: func(ctx context.Context) (any, error) {
				res, err := sc.Run(ctx)
				land(i, res, err)
				return nil, nil
			},
		})
	}

	go func() {
		defer close(out)
		for k, r := range sched.Gather(ctx, items) {
			// Do never fails, so an error here is a run that panicked
			// before it landed.
			if r.Err != nil && !r.Skipped {
				land(leaders[k], nil, r.Err)
			}
		}
	}()
	return out
}
