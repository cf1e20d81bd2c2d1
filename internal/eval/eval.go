// Package eval is the one evaluation path every layer shares: scenario →
// fingerprint → cached result, else simulate and store. The sweep runner,
// the simulator-in-the-loop objective and the fleet worker all answer
// scenarios through an Evaluator, so the cache value format (the Results
// JSON encoding) and the miss policy (an absent, unreadable or undecodable
// entry is a miss; the fresh result overwrites it; a failed write costs
// only a future re-simulation) are decided here and nowhere else.
package eval

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"

	"eend"
	"eend/internal/cache"
	"eend/internal/exec"
	"eend/internal/network"
	"eend/internal/obs"
)

// Backend simulates a batch of scenarios. It has eend.RunBatch's signature
// and channel contract, so the in-process pool and a fleet coordinator's
// RunBatch are interchangeable.
type Backend func(ctx context.Context, scenarios []*eend.Scenario, opts ...eend.BatchOption) <-chan eend.BatchResult

// OnSimulate, when non-nil, observes every scenario about to be simulated
// in process (never a cache hit, never a scenario sent to a remote
// Backend). Tests set it to prove warm paths never touch the simulator.
var OnSimulate func(*eend.Scenario)

func simulating(sc *eend.Scenario) {
	if OnSimulate != nil {
		OnSimulate(sc)
	}
}

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
	// (<= 0: GOMAXPROCS for simulations, ctx's ambient scheduler for
	// lookups).
	Workers int
	// Trace, when non-nil, records a "cache" leaf per lookup and a "sim"
	// leaf per simulation under the span the caller names. A batch's cache
	// leaves are emitted from scheduler workers.
	Trace *obs.Tracer
}

// Lookup answers fp from the store, under a "cache" span when traced. Store
// faults and entries that do not decode are misses.
func (e *Evaluator) Lookup(parent obs.Span, fp string) (*eend.Results, bool) {
	if e.Store == nil {
		return nil, false
	}
	sp := e.Trace.Start(parent, "cache", fp)
	var res *eend.Results
	if data, ok, err := e.Store.Get(fp); ok && err == nil {
		res, _ = network.DecodeResults(data)
	}
	sp.End(obs.A("hit", strconv.FormatBool(res != nil)))
	return res, res != nil
}

// put stores a fresh result; a failed write only costs a future
// re-simulation.
func (e *Evaluator) put(fp string, res *eend.Results) {
	if e.Store == nil {
		return
	}
	if data, err := json.Marshal(res); err == nil {
		_ = e.Store.Put(fp, data)
	}
}

// One evaluates a single scenario: the store's answer when it has one
// (cached true), else one run stored for next time. The in-process run is
// sc.Run on ctx's ambient scheduler, so a search evaluating candidates
// inside a worker pool stays within that pool's budget. One does not
// coalesce concurrent calls; a caller that needs that wraps it in its own
// single-flight (see opt.Simulated, whose flight leader must also re-check
// a memo One knows nothing about).
func (e *Evaluator) One(ctx context.Context, sc *eend.Scenario) (res *eend.Results, cached bool, err error) {
	fp := sc.Fingerprint()
	if res, ok := e.Lookup(obs.Span{}, fp); ok {
		return res, true, nil
	}
	if e.Backend == nil {
		simulating(sc)
		res, err = sc.Run(ctx)
	} else {
		err = errors.New("eval: backend returned no result")
		for br := range e.Backend(ctx, []*eend.Scenario{sc}) {
			res, err = br.Results, br.Err
		}
	}
	if err != nil {
		return nil, false, err
	}
	e.put(fp, res)
	return res, false, nil
}

// Item is one scenario of a Stream batch.
type Item struct {
	Scenario *eend.Scenario
	// Span parents the item's "cache" and "sim" leaves when traced.
	Span obs.Span
}

// Outcome is one item's answer.
type Outcome struct {
	// Index is the item's position in the slice passed to Stream.
	Index int
	// Results is nil when Err is set.
	Results *eend.Results
	// Cached reports the result was not freshly simulated for this batch:
	// a store hit here, or a Backend result that itself reports Cached (a
	// fleet worker's cache hit, a duplicate within the backend's batch).
	Cached bool
	Err    error
}

// Stream evaluates a batch in two steps, calling deliver once per answered
// item. The cache pass runs before Stream returns: the unique fingerprints
// are looked up in one contiguous chunk per worker (exec.New(Workers) when
// Workers is set, else ctx's ambient scheduler; a single chunk runs
// inline), and then every hit is delivered in item order on the calling
// goroutine, before any simulation starts. The returned
// simulate — nil when the cache answered everything — sends the misses to
// the backend as one batch and blocks until it is done, storing and
// delivering each result as it lands; the caller picks its goroutine.
// Items sharing a fingerprint are looked up and simulated once (their
// leaves hang under the first one's Span) and receive unaliased copies.
// Like the backend's own contract, items never dispatched after ctx is
// cancelled are not delivered.
func (e *Evaluator) Stream(ctx context.Context, items []Item, deliver func(Outcome)) (simulate func()) {
	// A group is one unique fingerprint: the first item that carries it
	// and any later duplicates.
	type group struct {
		first int
		dups  []int
		sim   obs.Span
	}
	groups := make([]group, 0, len(items))
	byFP := make(map[string]int, len(items))
	for i, it := range items {
		fp := it.Scenario.Fingerprint()
		if g, ok := byFP[fp]; ok {
			groups[g].dups = append(groups[g].dups, i)
			continue
		}
		byFP[fp] = len(groups)
		groups = append(groups, group{first: i})
	}
	fan := func(g *group, o Outcome) {
		o.Index = g.first
		deliver(o)
		for _, i := range g.dups {
			o.Index = i
			if o.Results != nil {
				o.Results = network.Copy(o.Results)
			}
			deliver(o)
		}
	}

	hits := make([]*eend.Results, len(groups))
	if e.Store != nil {
		e.each(ctx, len(groups), func(g int) {
			it := items[groups[g].first]
			hits[g], _ = e.Lookup(it.Span, it.Scenario.Fingerprint())
		})
	}
	var misses []*group
	var scenarios []*eend.Scenario
	for g := range groups {
		if hits[g] != nil {
			fan(&groups[g], Outcome{Results: hits[g], Cached: true})
			continue
		}
		it := items[groups[g].first]
		groups[g].sim = e.Trace.Start(it.Span, "sim", it.Scenario.Fingerprint())
		misses = append(misses, &groups[g])
		scenarios = append(scenarios, it.Scenario)
	}
	if len(scenarios) == 0 {
		return nil
	}
	return func() {
		backend := e.Backend
		if backend == nil {
			backend = eend.RunBatch
			for _, sc := range scenarios {
				simulating(sc)
			}
		}
		for br := range backend(ctx, scenarios, eend.Workers(e.Workers)) {
			g := misses[br.Index]
			if br.Err != nil {
				g.sim.End(obs.A("error", br.Err.Error()))
				fan(g, Outcome{Err: br.Err})
				continue
			}
			g.sim.End(obs.A("cached", strconv.FormatBool(br.Cached)))
			e.put(scenarios[br.Index].Fingerprint(), br.Results)
			fan(g, Outcome{Results: br.Results, Cached: br.Cached})
		}
	}
}

// each calls fn(0) … fn(n-1), split into one contiguous chunk per worker of
// the caller's scheduler, and returns when all have run. Lookups are short
// and bounded, so they are not abandoned on cancellation: what the cache
// pass delivers does not depend on the worker count.
func (e *Evaluator) each(ctx context.Context, n int, fn func(i int)) {
	sched := exec.From(ctx)
	if e.Workers > 0 {
		sched = exec.New(e.Workers)
	}
	chunks := min(sched.WorkerCount(), n)
	if chunks <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	work := make([]exec.Item, chunks)
	for c := range work {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		work[c] = exec.Item{Index: c, Do: func(context.Context) (any, error) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
			return nil, nil
		}}
	}
	sched.Gather(context.WithoutCancel(ctx), work)
}
