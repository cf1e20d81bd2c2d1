package eend

import (
	"context"
	"time"

	"eend/internal/exec"
	"eend/internal/network"
)

// batchAbandonGrace is how long a cancelled batch keeps trying to deliver
// a result before concluding the consumer departed and discarding the
// backlog. An actively draining consumer accepts within microseconds; a
// consumer that takes longer than this per result after cancelling is
// treated as departed and loses the tail (documented on RunBatch).
const batchAbandonGrace = time.Second

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
// Workers never block on a slow or departed consumer and, as long as the
// consumer keeps reading, every deliverable result — including the error
// results of runs aborted by cancellation — is delivered. The channel
// buffer is bounded: backlog lives in the scheduler's stream queue, which
// grows only with completed-but-unconsumed results, not with the batch
// size. The common early-exit pattern — cancel ctx, then stop reading — is
// leak-free: a cancelled batch with a result no consumer accepts for a
// one-second grace discards its backlog and frees the pipeline (so a
// post-cancellation consumer that stalls longer than the grace per result
// forfeits the remaining aborted-run results). Abandoning the channel
// without cancelling leaves the simulations running to completion and
// parks the forwarding goroutines on the undelivered backlog.
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

	// One item per distinct fingerprint, carrying its leader's index; dups
	// lists, by leader index, the later scenarios that share its run.
	items := make([]exec.Item, 0, len(scenarios))
	dups := make([][]int, len(scenarios))
	leader := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		fp := sc.Fingerprint()
		if l, ok := leader[fp]; ok {
			dups[l] = append(dups[l], i)
			continue
		}
		leader[fp] = i
		items = append(items, exec.Item{
			Index: i,
			Do: func(ctx context.Context) (any, error) {
				return sc.Run(ctx)
			},
		})
	}

	out := make(chan BatchResult, min(len(scenarios), 16))
	go func() {
		defer close(out)
		// Stream's merger queues whatever this goroutine has not taken, so
		// blocking on the consumer here never blocks a worker. Only once
		// ctx is cancelled can the consumer have legitimately left: a send
		// nobody accepts for the grace period then reports false.
		send := func(br BatchResult) bool {
			select {
			case out <- br:
				return true
			case <-ctx.Done():
			}
			select {
			case out <- br:
				return true
			case <-time.After(batchAbandonGrace):
				return false
			}
		}
		stream := sched.Stream(ctx, items)
		for r := range stream {
			res, _ := r.Value.(*Results) // nil when r.Err is set
			group := make([]BatchResult, 1, 1+len(dups[r.Index]))
			group[0] = BatchResult{Index: r.Index, Scenario: scenarios[r.Index], Results: res, Err: r.Err}
			// Copies are taken before the leader is handed over: from then
			// on its Results belong to the consumer.
			for _, i := range dups[r.Index] {
				d := BatchResult{Index: i, Scenario: scenarios[i], Err: r.Err, Cached: true}
				if res != nil {
					d.Results = network.Copy(res)
				}
				group = append(group, d)
			}
			for k, br := range group {
				if k > 0 && ctx.Err() != nil {
					break // cancelled: the remaining duplicates were never dispatched
				}
				if !send(br) {
					for range stream { // departed consumer: free the pipeline
					}
					return
				}
			}
		}
	}()
	return out
}
