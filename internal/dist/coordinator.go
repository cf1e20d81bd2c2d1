package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eend"
	"eend/internal/buildinfo"
	"eend/internal/exec"
	"eend/internal/obs"
)

// The coordinator's fixed dispatch parameters.
const (
	// shardSize is the maximum number of scenarios per shard: small enough
	// to spread and to retry cheaply, large enough to amortize HTTP overhead.
	shardSize = 8
	// firstBackoff is the delay before a shard's first retry, doubling per
	// attempt up to maxBackoff.
	firstBackoff = 50 * time.Millisecond
	maxBackoff   = 2 * time.Second
	// suspectAfter consecutive failures sidelines a worker: later shards
	// prefer its siblings, and it rejoins on its next success (retries
	// still reach it when every worker is sidelined).
	suspectAfter = 2
)

// RetryEvent describes one failed shard attempt about to be retried.
type RetryEvent struct {
	// Shard is the shard's index within the batch.
	Shard int
	// Worker is the address of the worker that failed.
	Worker string
	// Attempt counts attempts made so far (1 = the first try failed).
	Attempt int
	// Err is the transport-level failure.
	Err error
}

// Coordinator spreads a batch of scenarios across a fleet of workers. It
// partitions the scenarios into shards, dispatches shards concurrently on
// the shared execution scheduler, retries failed shards on surviving
// workers with bounded exponential backoff, and merges results back to
// input order. Because every worker simulates from the same canonical
// encodings and the merge is positional, a distributed run is
// bit-identical to a local one.
//
// The zero value is not usable; Workers must hold at least one Evaluator.
// A Coordinator is safe for concurrent use and carries worker-health
// state across batches.
type Coordinator struct {
	// Workers are the fleet members shards are dispatched to.
	Workers []Evaluator
	// Parallel bounds shards in flight (<= 0: 2 per worker).
	Parallel int
	// OnRetry, when non-nil, observes every failed attempt that will be
	// retried. Calls may be concurrent (one per in-flight shard).
	OnRetry func(RetryEvent)
	// Trace, when non-nil, records one span per shard under Span, carrying
	// the worker that served it, the attempt count, request payload bytes,
	// and — for failed shards — the last failure's cause. Tracing observes
	// dispatch only and never changes results.
	Trace *obs.Tracer
	// Span is the parent the shard spans attach under; the zero Span hangs
	// them off the trace root.
	Span obs.Span

	once  sync.Once
	fails []atomic.Int32 // consecutive failures per worker
	rr    atomic.Uint64  // round-robin dispatch cursor
}

// NewCoordinator returns a Coordinator over the eendd workers at the given
// base URLs (e.g. "http://host:8080").
func NewCoordinator(urls []string) *Coordinator {
	workers := make([]Evaluator, len(urls))
	for i, u := range urls {
		workers[i] = NewClient(u, nil)
	}
	return &Coordinator{Workers: workers}
}

func (c *Coordinator) init() {
	c.once.Do(func() { c.fails = make([]atomic.Int32, len(c.Workers)) })
}

func (c *Coordinator) parallel() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return 2 * len(c.Workers)
}

// pick selects the n-th worker to try, preferring ones that haven't
// recently failed; when every worker is suspect, all of them are
// candidates again (a retry must go somewhere).
func (c *Coordinator) pick(n int) (Evaluator, int) {
	var healthy []int
	for i := range c.Workers {
		if c.fails[i].Load() < suspectAfter {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		healthy = make([]int, len(c.Workers))
		for i := range healthy {
			healthy[i] = i
		}
	}
	wi := healthy[n%len(healthy)]
	return c.Workers[wi], wi
}

// evaluateShard runs one shard to completion: try a worker, and on a
// transport-level failure back off and move to the next candidate. Only
// when the attempt budget is exhausted does the shard fail.
func (c *Coordinator) evaluateShard(ctx context.Context, shard int, scenarios []string) ([]EvalResult, error) {
	var reqBytes int64
	for _, s := range scenarios {
		reqBytes += int64(len(s))
	}
	sp := c.Trace.Start(c.Span, "shard", strconv.Itoa(shard))
	// Two retries per worker beyond the first try, each preferring workers
	// that haven't recently failed.
	attempts := 1 + 2*len(c.Workers)
	backoff := firstBackoff
	start := int(c.rr.Add(1))
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, err
		}
		w, wi := c.pick(start + a)
		bytesSent.Add(uint64(reqBytes))
		t0 := time.Now()
		res, err := w.Evaluate(ctx, scenarios)
		dispatchSeconds.ObserveSince(t0)
		if err == nil {
			c.fails[wi].Store(0)
			shardsDone.Inc()
			sp.End(obs.A("worker", w.Addr()), obs.AInt("attempt", int64(a+1)),
				obs.AInt("scenarios", int64(len(scenarios))), obs.AInt("bytes", reqBytes))
			return res, nil
		}
		lastErr = err
		c.fails[wi].Add(1)
		if a == attempts-1 {
			break
		}
		countRetry(err)
		if c.OnRetry != nil {
			c.OnRetry(RetryEvent{Shard: shard, Worker: w.Addr(), Attempt: a + 1, Err: err})
		}
		if err := sleep(ctx, backoff); err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, err
		}
		backoff = min(2*backoff, maxBackoff)
	}
	shardsFailed.Inc()
	sp.End(obs.A("cause", retryCause(lastErr)), obs.A("error", lastErr.Error()),
		obs.AInt("attempts", int64(attempts)))
	return nil, fmt.Errorf("dist: shard %d failed on every worker (%d attempts): %w", shard, attempts, lastErr)
}

// RunBatch is the distributed counterpart of eend.RunBatch: the same
// channel contract (results stream in completion order, correlated by
// Index, into a channel buffered for the whole batch; the channel closes
// when every deliverable result is in; scenarios never dispatched after
// cancellation don't appear) — but the simulations run on the fleet, with
// the Coordinator's Parallel shards in flight. A shard whose worker call
// panics fails each of its scenarios with the panic.
//
// Scenarios are sharded as given — deduplicating a batch by fingerprint is
// the evaluator's job (internal/eval), which hands RunBatch unique
// scenarios. A worker whose reported fingerprint disagrees with the
// coordinator's — divergent simulator builds — yields an error result,
// never a silently wrong one.
func (c *Coordinator) RunBatch(ctx context.Context, scenarios []*eend.Scenario) <-chan eend.BatchResult {
	c.init()
	out := make(chan eend.BatchResult, len(scenarios))
	// land sends shard k's results; the shard succeeded or failed as a
	// whole in transport, and per-scenario outcomes ride inside its results.
	// They are built before the first send, so a panic sends nothing.
	land := func(k int, res []EvalResult, err error) {
		lo := k * shardSize
		group := make([]eend.BatchResult, 0, shardSize)
		for j, sc := range scenarios[lo:min(lo+shardSize, len(scenarios))] {
			br := eend.BatchResult{Index: lo + j, Scenario: sc, Err: err}
			if err == nil {
				merge(&br, res[j])
			}
			group = append(group, br)
		}
		for _, br := range group {
			out <- br
		}
	}

	// Partition the batch into contiguous shards: shard k covers scenarios
	// [k*shardSize, (k+1)*shardSize).
	var items []exec.Item
	for lo := 0; lo < len(scenarios); lo += shardSize {
		shard := len(items)
		texts := make([]string, 0, shardSize)
		for _, sc := range scenarios[lo:min(lo+shardSize, len(scenarios))] {
			texts = append(texts, sc.Canonical())
		}
		items = append(items, exec.Item{
			Index: shard,
			Do: func(ctx context.Context) (any, error) {
				res, err := c.evaluateShard(ctx, shard, texts)
				land(shard, res, err)
				return nil, nil
			},
		})
	}

	go func() {
		defer close(out)
		for k, r := range exec.New(c.parallel()).Gather(ctx, items) {
			// Do never fails, so an error here is a shard that panicked
			// before it landed.
			if r.Err != nil && !r.Skipped {
				land(k, nil, r.Err)
			}
		}
	}()
	return out
}

// merge folds one worker result into its BatchResult, cross-checking the
// worker's fingerprint against the coordinator's own.
func merge(br *eend.BatchResult, er EvalResult) {
	fp := br.Scenario.Fingerprint()
	switch {
	case er.Error != "":
		br.Err = errors.New(er.Error)
	case er.Fingerprint != fp && er.WorkerVersion != "":
		br.Err = fmt.Errorf(
			"dist: worker fingerprint %s (worker build %s) disagrees with coordinator %s (coordinator build %s): divergent simulator builds",
			er.Fingerprint, er.WorkerVersion, fp, buildinfo.Version())
	case er.Fingerprint != fp:
		br.Err = fmt.Errorf(
			"dist: worker fingerprint %s disagrees with coordinator %s (divergent simulator builds?)",
			er.Fingerprint, fp)
	case er.Results == nil:
		br.Err = errors.New("dist: worker returned no results and no error")
	default:
		br.Results, br.Cached = er.Results, er.Cached
	}
}
