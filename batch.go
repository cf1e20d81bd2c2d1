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
	// Cached reports that Results was shared from a concurrent run of an
	// identical scenario (same fingerprint) instead of a fresh simulation
	// — the scheduler's single-flight coalescing at work.
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
// Workers never block on a slow or departed consumer and, as long as the
// consumer keeps reading, every deliverable result — including the error
// results of runs aborted by cancellation — is delivered. The channel
// buffer is bounded: backlog lives in a queue that grows only with
// completed-but-unconsumed results, not with the batch size. The common
// early-exit pattern — cancel ctx, then stop reading — is leak-free: a
// cancelled batch whose backlog goes unclaimed for a one-second grace
// discards it and frees the pipeline (so a post-cancellation consumer
// that stalls longer than the grace per result forfeits the remaining
// aborted-run results). Abandoning the channel without cancelling leaves
// the simulations running to completion (exactly as before) and parks
// one forwarding goroutine on the undelivered backlog.
//
// Two identical scenarios (equal fingerprints) in flight at the same time
// share one simulator run; the follower's BatchResult reports Cached.
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

	items := make([]exec.Item, len(scenarios))
	for i, sc := range scenarios {
		items[i] = exec.Item{
			Index:    i,
			Seed:     sc.Seed(),
			Priority: exec.PriorityBatch,
			// The fingerprint is the scenario's content address: identical
			// in-flight scenarios coalesce into one run.
			Key: sc.Fingerprint(),
			Do: func(ctx context.Context) (any, error) {
				return sc.Run(ctx)
			},
		}
	}

	out := make(chan BatchResult, min(len(items), 16))
	go func() {
		defer close(out)
		convert := func(r exec.Result) BatchResult {
			br := BatchResult{Index: r.Index, Scenario: scenarios[r.Index], Err: r.Err, Cached: r.Shared}
			if r.Err == nil {
				res := r.Value.(*Results)
				if r.Shared {
					res = network.Copy(res)
				}
				br.Results = res
			}
			return br
		}
		// The forwarder is always ready to receive from the scheduler, so
		// workers and the stream merger can never be blocked by this
		// channel's consumer; backlog accumulates in pending instead, and
		// every result — including post-cancellation error results — is
		// delivered to a consumer that keeps reading. After cancellation,
		// a send that no consumer accepts for a full grace period marks
		// the consumer departed: the backlog is discarded and the stream
		// drained, so a cancelled-and-abandoned batch frees its pipeline.
		in := sched.Stream(ctx, items)
		cancelled := ctx.Done()
		isCancelled := false
		var graceC <-chan time.Time
		var pending []BatchResult
		for in != nil || len(pending) > 0 {
			var sendCh chan BatchResult
			var head BatchResult
			if len(pending) > 0 {
				sendCh = out
				head = pending[0]
				if isCancelled && graceC == nil {
					graceC = time.After(batchAbandonGrace)
				}
			} else {
				graceC = nil
			}
			// A nil in (stream closed) or nil sendCh (nothing pending)
			// simply disables that case.
			select {
			case r, ok := <-in:
				if !ok {
					in = nil
					continue
				}
				pending = append(pending, convert(r))
			case sendCh <- head:
				pending = pending[1:]
				graceC = nil // progress proves the consumer alive
			case <-cancelled:
				cancelled, isCancelled = nil, true
			case <-graceC:
				pending = nil
				graceC = nil
				for in != nil {
					if _, ok := <-in; !ok {
						in = nil
					}
				}
			}
		}
	}()
	return out
}
