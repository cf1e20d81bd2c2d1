// Package eval is the one evaluation path every layer shares: scenario →
// fingerprint → cached result, else simulate and store. The sweep runner,
// the simulator-in-the-loop objective and the fleet worker all answer
// scenarios through an Evaluator, so the cache value format (the Results
// JSON encoding), the miss policy (an absent, unreadable or undecodable
// entry is a miss; the fresh result overwrites it; a failed write costs
// only a future re-simulation) and the replicate rule (a replicated
// scenario is looked up, simulated and stored one derived seed at a time)
// are decided here and nowhere else.
package eval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"sync"

	"eend"
	"eend/internal/cache"
	"eend/internal/exec"
	"eend/internal/network"
	"eend/internal/obs"
)

// Backend simulates a batch of scenarios elsewhere, with the channel
// contract of the facade's batch runner (a fleet coordinator's).
type Backend func(ctx context.Context, scenarios []*eend.Scenario) <-chan eend.BatchResult

// OnSimulate, when non-nil, observes every scenario about to be simulated
// in process (never a cache hit, never a scenario sent to a remote
// Backend). Tests set it to prove warm paths never touch the simulator.
var OnSimulate func(*eend.Scenario)

// OpenStore resolves a caller's cache configuration: an explicit store
// wins, else the on-disk store rooted at dir, else no cache (nil).
func OpenStore(store cache.Store, dir string) (cache.Store, error) {
	if store != nil || dir == "" {
		return store, nil
	}
	disk, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	return disk, nil
}

// Evaluator answers scenarios from Store or simulates them on Backend. The
// zero value simulates in process without a cache; it is safe for
// concurrent use.
type Evaluator struct {
	// Store, when non-nil, is consulted before simulating and receives
	// every fresh result.
	Store cache.Store
	// Backend runs the misses; nil is the in-process simulator.
	Backend Backend
	// Workers bounds a batch's concurrent simulations and cache lookups
	// (<= 0: ctx's ambient scheduler).
	Workers int
	// Trace, when non-nil, records a "replicate" span per seed under the
	// span the caller names, and under it a "cache" leaf per lookup and a
	// "sim" leaf per simulation. Cache leaves come from scheduler workers.
	Trace *obs.Tracer
}

// One evaluates a single scenario as Stream of one item, so a replicated
// scenario shares its per-seed cache entries with sweeps. One does not
// coalesce concurrent calls; a caller that needs that keeps its own
// in-flight calls (see opt.Simulated).
func (e *Evaluator) One(ctx context.Context, sc *eend.Scenario) (res *eend.Results, cached bool, err error) {
	o := Outcome{Index: -1}
	e.Stream(ctx, []Item{{Scenario: sc}}, func(got Outcome) { o = got })()
	if o.Index < 0 { // never dispatched
		return nil, false, cmp.Or(ctx.Err(), errors.New("eval: backend returned no result"))
	}
	return o.Results, o.Cached, o.Err
}

// Item is one scenario of a Stream batch.
type Item struct {
	Scenario *eend.Scenario // replicated or not
	// Span parents the item's "replicate" spans when traced.
	Span obs.Span
}

// Outcome is one item's answer.
type Outcome struct {
	// Index is the item's position in the slice passed to Stream.
	Index int
	// Results is nil when Err is set; else what Scenario.Run returns.
	Results *eend.Results
	// Cached reports that no seed was freshly simulated for this batch:
	// each was a store hit, or a Backend result reporting Cached (a fleet
	// worker's cache hit, a duplicate within the backend's batch).
	Cached bool
	Err    error // the first failing seed's, in replicate order
}

// seed is one replicate of one item: the unit the cache and the simulator
// see. Seeds sharing a fingerprint are chained through next (-1 ends the
// chain); only the chain's head is looked up and simulated.
type seed struct {
	item      int
	sc        *eend.Scenario // nil when deriving the replicate failed (err set)
	next      int
	span, sim obs.Span // the seed's "replicate" span; the head's "sim" leaf
	res       *eend.Results
	err       error
	cached    bool
}

// batch is one Stream call's state: item i's seeds are
// seeds[items[i].lo:items[i].hi], pending of them still unanswered.
type batch struct {
	*Evaluator
	mu      sync.Mutex // serializes answers landing from scheduler workers
	seeds   []seed
	items   []struct{ lo, hi, pending int }
	deliver func(Outcome)
	one     struct { // a lone item's storage (One), inside the batch's allocation
		seeds [1]seed
		items [1]struct{ lo, hi, pending int }
		heads [1]int
	}
}

// Stream evaluates a batch in two steps, calling deliver once per answered
// item. Each item is expanded into its replicates (replicate 0 is the
// unreplicated scenario), and the seeds' unique fingerprints are the unit
// of work: one lookup, one simulation, unaliased copies for duplicates. The
// cache pass runs before Stream returns, one contiguous chunk of lookups
// per worker (exec.New(Workers) when Workers is set, else ctx's ambient
// scheduler; a single chunk runs inline), and delivers every item the cache
// answers completely on the calling goroutine. The returned simulate, a
// no-op when the cache answered everything, runs the misses (one Backend
// batch; else a lone miss inline, more as Nested items on the same
// scheduler joined with Gather, so a caller on a worker helps), stores each
// result and delivers each item as its last seed lands; deliver calls are
// sequential. A panicking simulation fails its seed alone; a panic in
// deliver or the store reaches the caller at any worker count. An item
// with a seed never dispatched after ctx is cancelled is not delivered.
func (e *Evaluator) Stream(ctx context.Context, items []Item, deliver func(Outcome)) (simulate func()) {
	b := &batch{Evaluator: e, deliver: deliver}
	heads := b.one.heads[:0] // each fingerprint's first seed
	if b.seeds, b.items = b.one.seeds[:0], b.one.items[:]; len(items) != 1 {
		b.seeds, b.items = make([]seed, 0, len(items)), make([]struct{ lo, hi, pending int }, len(items))
		heads = make([]int, 0, len(items))
	}
	byFP := make(map[string]int, len(items)) // fingerprint -> last seed carrying it
	for i, it := range items {
		st := &b.items[i]
		st.lo = len(b.seeds)
		for k := range it.Scenario.Replicates() {
			sc, err := it.Scenario.Replicate(k)
			if err != nil {
				b.seeds = append(b.seeds, seed{item: i, err: err})
				break
			}
			fp, s := sc.Fingerprint(), len(b.seeds)
			if last, dup := byFP[fp]; dup {
				b.seeds[last].next = s
			} else {
				heads = append(heads, s)
			}
			byFP[fp] = s
			b.seeds = append(b.seeds, seed{item: i, sc: sc, next: -1, span: e.Trace.Start(it.Span, "replicate", fp)})
			st.pending++
		}
		if st.hi = len(b.seeds); st.pending == 0 {
			b.complete(i)
		}
	}

	sched := exec.From(ctx)
	if e.Workers > 0 {
		sched = exec.New(e.Workers)
	}
	if e.Store != nil {
		b.lookup(ctx, sched, heads)
	}
	misses, scenarios := heads[:0], []*eend.Scenario(nil)
	for _, s := range heads {
		if sd := &b.seeds[s]; sd.res != nil {
			b.land(s, sd.res, nil, true)
		} else {
			sd.sim = e.Trace.Start(sd.span, "sim", sd.sc.Fingerprint())
			misses, scenarios = append(misses, s), append(scenarios, sd.sc)
			if OnSimulate != nil && e.Backend == nil {
				OnSimulate(sd.sc) // on the calling goroutine, before dispatch
			}
		}
	}
	if len(misses) == 0 {
		return func() {}
	}
	return func() {
		if e.Backend != nil {
			for br := range e.Backend(ctx, scenarios) {
				b.simulated(misses[br.Index], br.Results, br.Err, br.Cached)
			}
			return
		}
		if len(misses) == 1 && ctx.Err() == nil { // a lone miss runs on the caller
			res, err := run(ctx, scenarios[0])
			b.simulated(misses[0], res, err, false)
			return
		}
		work := make([]exec.Item, len(misses))
		for m, sc := range scenarios {
			s := misses[m]
			work[m] = exec.Item{Index: m, Nested: true, Do: func(ctx context.Context) (any, error) {
				res, err := run(ctx, sc)
				b.simulated(s, res, err, false)
				return nil, nil
			}}
		}
		for _, r := range sched.Gather(ctx, work) {
			if r.Err != nil && !r.Skipped { // a skipped item was never dispatched
				panic(r.Err) // deliver or the store panicked on a worker
			}
		}
	}
}

// run is sc.Run, except that a panic fails the seed alone.
func run(ctx context.Context, sc *eend.Scenario) (res *eend.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "eval: simulation panicked: %v\n%s", r, debug.Stack())
			res, err = nil, fmt.Errorf("eval: simulation panicked: %v", r)
		}
	}()
	return sc.Run(ctx)
}

// simulated ends head s's "sim" leaf, stores a fresh result (a failed
// write only costs a future re-simulation) and lands it.
func (b *batch) simulated(s int, res *eend.Results, err error, cached bool) {
	sd := &b.seeds[s]
	end(sd.sim, err, cached)
	if err == nil && b.Store != nil {
		if data, err := res.MarshalJSON(); err == nil {
			_ = b.Store.Put(sd.sc.Fingerprint(), data)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.land(s, res, err, cached)
}

// land answers head s and the seeds chained to it, each duplicate with its
// own copy, and delivers every item whose last seed this was.
func (b *batch) land(s int, res *eend.Results, err error, cached bool) {
	for head := s; s >= 0; s = b.seeds[s].next {
		if s != head && res != nil {
			res = network.Copy(res)
		}
		sd := &b.seeds[s]
		sd.res, sd.err, sd.cached = res, err, cached
		end(sd.span, err, cached)
		st := &b.items[sd.item]
		if st.pending--; st.pending == 0 {
			b.complete(sd.item)
		}
	}
}

// complete folds item i's seeds into its Outcome and delivers it: the first
// failing seed in replicate order is the error, else the first replicate's
// Results with the replicate summary attached — Scenario.Run's fold.
func (b *batch) complete(i int) {
	seeds := b.seeds[b.items[i].lo:b.items[i].hi]
	o := Outcome{Index: i, Results: seeds[0].res, Cached: true}
	for _, sd := range seeds {
		if sd.err != nil {
			b.deliver(Outcome{Index: i, Err: sd.err})
			return
		}
		o.Cached = o.Cached && sd.cached
	}
	if len(seeds) > 1 {
		ids, runs := make([]uint64, len(seeds)), make([]*eend.Results, len(seeds))
		for k, sd := range seeds {
			ids[k], runs[k] = sd.sc.Seed(), sd.res
		}
		res := *runs[0]
		res.Replicates = eend.AggregateReplicates(ids, runs)
		o.Results = &res
	}
	b.deliver(o)
}

// end closes a seed's span with its answer.
func end(sp obs.Span, err error, cached bool) {
	if err != nil {
		sp.End(obs.A("error", err.Error()))
	} else {
		sp.End(obs.A("cached", strconv.FormatBool(cached)))
	}
}

// lookup answers the head seeds the store holds, each under its "cache"
// leaf, in one contiguous chunk of heads per worker of sched (a single
// chunk runs inline). Store faults and entries that do not decode are
// misses; a panicking Store.Get reaches the caller as it would inline (the
// first failing chunk's panic, re-raised after the join). Lookups are short and bounded, so
// they are not abandoned on cancellation: what the cache pass delivers
// does not depend on the worker count.
func (b *batch) lookup(ctx context.Context, sched *exec.Scheduler, heads []int) {
	n := len(heads)
	chunks := max(1, min(sched.WorkerCount(), n))
	if chunks == 1 {
		b.lookupChunk(heads)
		return
	}
	work := make([]exec.Item, chunks)
	for c := range work {
		work[c] = exec.Item{Index: c, Do: func(context.Context) (any, error) {
			b.lookupChunk(heads[c*n/chunks : (c+1)*n/chunks])
			return nil, nil
		}}
	}
	for _, r := range sched.Gather(context.WithoutCancel(ctx), work) {
		if r.Err != nil {
			panic(r.Err)
		}
	}
}

// lookupChunk answers heads in order.
func (b *batch) lookupChunk(heads []int) {
	for _, s := range heads {
		sd := &b.seeds[s]
		fp := sd.sc.Fingerprint()
		sp := b.Trace.Start(sd.span, "cache", fp)
		if data, ok, err := b.Store.Get(fp); ok && err == nil {
			sd.res, _ = network.DecodeResults(data)
		}
		sp.End(obs.A("hit", strconv.FormatBool(sd.res != nil)))
	}
}
