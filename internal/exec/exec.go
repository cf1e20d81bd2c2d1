// Package exec is the unified execution runtime: one bounded work
// scheduler under every layer that fans work out — eend.RunBatch,
// WithReplicates replication, sweep.Runner, eend/opt's random-restart
// search and the paper experiments' runner (internal/experiments) all
// submit Items here instead of spinning private worker pools.
//
// Gather is the one way to submit work: it blocks until every item is
// accounted for and returns the results in item order. A caller that
// wants results as they complete (RunBatch, the fleet coordinator) runs
// Gather on a goroutine of its own and has each item hand its result on
// from inside its Do.
//
// The scheduler's contract is determinism first: an Item's value never
// depends on when or where it runs. Whatever randomness an item's work
// uses is fixed in its Do closure at submission time, and results merge
// back in item order — so parallel execution reproduces sequential output
// bit-for-bit, at any worker count. The scheduler runs every item it is
// given: sharing one run between identical items is the submitter's
// business (RunBatch groups its input by fingerprint; the Simulated
// objective keeps its own in-flight calls).
//
// Nested fan-out is first-class: an item that itself submits items (a
// batched scenario fanning out its replicates, a restart search evaluating
// candidates) calls Gather with the ctx its Do received. The scheduler
// recognizes its own workers and lets them help drain the queue while they
// wait, so the worker budget is respected without deadlocking the pool.
package exec

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MaxWorkers is the hard upper cap on any scheduler's worker count: a
// request for more (for example over HTTP) is clamped, never honored —
// beyond this, goroutine overhead only subtracts from throughput.
const MaxWorkers = 256

// Workers normalizes a requested worker count to the runtime's policy:
// n <= 0 means GOMAXPROCS, and everything is capped at MaxWorkers. Every
// layer that accepts a worker knob (RunBatch, sweep.Runner, opt.Options,
// the eendd request surface) funnels through here, so the policy lives in
// exactly one place.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, MaxWorkers)
}

// Item is one schedulable unit of work.
type Item struct {
	// Index is the item's position within its submission; Gather returns
	// results in Index order.
	Index int
	// Nested marks a fan-out from inside a running item (replicates under
	// a batched scenario). Nested items dispatch ahead of every top-level
	// one: finishing started work beats starting new work.
	Nested bool
	// Do performs the work. The ctx it receives derives from the
	// submission's ctx and marks the goroutine as a scheduler worker, so
	// nested Gather calls must pass it on.
	Do func(ctx context.Context) (any, error)
}

// Result is one item's outcome.
type Result struct {
	// Index is the submitting Item's Index.
	Index int
	// Value is Do's return value; nil when Err is set.
	Value any
	// Err is Do's error, or the submission ctx's error for items
	// cancelled before or while running.
	Err error
	// Skipped reports that the item was never started because the
	// submission's ctx was already cancelled at dispatch time.
	Skipped bool
}

// Scheduler is a bounded work scheduler. Workers are spawned on demand up
// to the bound and exit when the queue drains; a zero-work scheduler costs
// nothing. All methods are safe for concurrent use.
type Scheduler struct {
	workers int

	mu sync.Mutex
	// queues holds the waiting entries: nested items in [0], top-level
	// ones in [1]. Dispatch drains [0] first and is FIFO within each.
	queues  [2][]entry
	running int // live worker goroutines
	parked  int // workers blocked in nested waits; they free a budget slot
}

// New returns a scheduler bounded at Workers(workers).
func New(workers int) *Scheduler {
	return &Scheduler{workers: Workers(workers)}
}

// WorkerCount returns the scheduler's normalized worker bound.
func (s *Scheduler) WorkerCount() int { return s.workers }

// Default returns the process-wide scheduler (GOMAXPROCS workers). It
// serves layers that fan out without an enclosing scheduler in their
// context (a bare Scenario.Run with replicates): one pool keeps the total
// concurrency of independent callers bounded by the machine, which is the
// point of a unified runtime.
var Default = sync.OnceValue(func() *Scheduler { return New(0) })

// ctxKey carries the ambient scheduler; workerKey marks worker goroutines.
type ctxKey struct{}
type workerKey struct{}

// With returns a ctx carrying s as the ambient scheduler for nested
// layers: work submitted under the returned ctx (replicate fan-out inside
// a batched scenario, candidate evaluation inside a search) lands on s
// instead of a fresh pool.
func With(ctx context.Context, s *Scheduler) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns ctx's ambient scheduler, or the process-wide Default.
func From(ctx context.Context) *Scheduler {
	if s, ok := ctx.Value(ctxKey{}).(*Scheduler); ok {
		return s
	}
	return Default()
}

// entry is one queued item together with its submission.
type entry struct {
	sub *submission
	idx int // index into sub.items
}

// pop removes and returns the next entry to dispatch: the front of the
// nested queue, else the front of the top-level one. With sub set it
// considers sub's entries only — helpers joining a nested Gather run their
// own children and nothing else, because running arbitrary foreign work
// from inside an item's call chain could wait on an in-flight call that
// chain itself leads (the Simulated objective's), which the scheduler
// cannot see. That scan is linear; queues hold coarse-grained simulation
// work, never enough entries for it to matter. Callers hold s.mu.
func (s *Scheduler) pop(sub *submission) (entry, bool) {
	for qi := range s.queues {
		q := &s.queues[qi]
		for i, e := range *q {
			if sub != nil && e.sub != sub {
				continue
			}
			if i == 0 {
				(*q)[0] = entry{} // the worker's pop: reslice, never shift
				*q = (*q)[1:]
			} else {
				*q = slices.Delete(*q, i, i+1)
			}
			queueDepth.Dec()
			return e, true
		}
	}
	return entry{}, false
}

// submission tracks one Gather call's items and results.
type submission struct {
	ctx       context.Context
	items     []Item
	results   []Result
	remaining atomic.Int64  // results still to land
	done      chan struct{} // closed by the last one
}

// deliver lands r, from any goroutine, exactly once per item.
func (sub *submission) deliver(r Result) {
	sub.results[r.Index] = r
	if sub.remaining.Add(-1) == 0 {
		close(sub.done)
	}
}

// enqueue pushes every item of sub and wakes workers for them.
func (s *Scheduler) enqueue(sub *submission) {
	s.mu.Lock()
	for i := range sub.items {
		qi := 1
		if sub.items[i].Nested {
			qi = 0
		}
		s.queues[qi] = append(s.queues[qi], entry{sub: sub, idx: i})
	}
	queueDepth.Add(int64(len(sub.items)))
	s.spawnLocked()
	s.mu.Unlock()
}

// spawnLocked tops the pool up to the worker budget, spawning at most one
// worker per queued entry (a worker that finds the queue drained simply
// exits). Callers hold s.mu.
func (s *Scheduler) spawnLocked() {
	for n := len(s.queues[0]) + len(s.queues[1]); n > 0 && s.running-s.parked < s.workers; n-- {
		s.running++
		go s.worker()
	}
}

// worker drains the queue and exits when it is empty — or when the pool
// is over budget. Parking spawns replacement workers, so after an unpark
// the pool can transiently exceed its bound; the check below retires the
// excess at the next item boundary, restoring the budget.
func (s *Scheduler) worker() {
	for {
		s.mu.Lock()
		if s.running-s.parked > s.workers {
			s.running--
			s.mu.Unlock()
			return
		}
		e, ok := s.pop(nil)
		if !ok {
			s.running--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.runEntry(e)
	}
}

// park blocks the calling worker until done closes while releasing its
// budget slot, so a nested Gather's join never starves the queue of
// workers.
func (s *Scheduler) park(done <-chan struct{}) {
	s.mu.Lock()
	s.parked++
	s.spawnLocked()
	s.mu.Unlock()
	<-done
	s.mu.Lock()
	s.parked--
	s.mu.Unlock()
}

// runEntry executes one queued item: cancellation check, then delivery.
func (s *Scheduler) runEntry(e entry) {
	it := &e.sub.items[e.idx]
	ctx := e.sub.ctx
	if ctx.Err() != nil {
		e.sub.deliver(Result{Index: it.Index, Err: ctx.Err(), Skipped: true})
		return
	}
	v, err := timedDo(markWorker(ctx), it.Do)
	e.sub.deliver(Result{Index: it.Index, Value: v, Err: err})
}

// markWorker tags ctx so nested Gather calls recognize they already hold
// a worker slot (and must help instead of just blocking).
func markWorker(ctx context.Context) context.Context {
	if onWorker(ctx) {
		return ctx // already marked by an outer frame
	}
	return context.WithValue(ctx, workerKey{}, true)
}

// onWorker reports whether ctx belongs to a scheduler worker goroutine.
func onWorker(ctx context.Context) bool { return ctx.Value(workerKey{}) != nil }

// Gather schedules items and returns their results in Item.Index order —
// the ordered merge the determinism contract depends on. Results index by
// the items' Index fields, which must be the dense range [0, len(items)).
//
// Gather may be called from inside an item's Do (nested fan-out): the
// calling worker then helps execute queued items while it waits, so the
// pool's worker budget is respected without deadlock. Cancellation of ctx
// marks undispatched items Skipped with the ctx error; started work is
// cancelled through the ctx its Do received.
func (s *Scheduler) Gather(ctx context.Context, items []Item) []Result {
	sub := &submission{ctx: ctx, items: items, results: make([]Result, len(items)), done: make(chan struct{})}
	if len(items) == 0 {
		return sub.results
	}
	sub.remaining.Store(int64(len(items)))
	s.enqueue(sub)
	if onWorker(ctx) {
		// Help-first join: run our own queued children (and only those,
		// see pop) until the submission completes, then park, which frees
		// this worker's budget slot so a replacement covers foreign work.
		for {
			select {
			case <-sub.done:
				return sub.results
			default:
			}
			s.mu.Lock()
			e, ok := s.pop(sub)
			s.mu.Unlock()
			if !ok {
				s.park(sub.done)
				return sub.results
			}
			s.runEntry(e)
		}
	}
	<-sub.done
	return sub.results
}
