package eval

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eend"
	"eend/internal/cache"
	"eend/internal/obs"
)

// testScenarios builds n small, distinct scenarios.
func testScenarios(t *testing.T, n int) []*eend.Scenario {
	t.Helper()
	scs := make([]*eend.Scenario, n)
	for i := range scs {
		sc, err := eend.NewScenario(
			eend.WithSeed(uint64(i+1)), eend.WithNodes(8), eend.WithField(250, 250),
			eend.WithRandomFlows(2, 2048, 128), eend.WithDuration(10*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		scs[i] = sc
	}
	return scs
}

// countingBackend runs batches in process, counting the scenarios it is
// handed; cached stamps every result the way a fleet worker answering from
// its own cache does.
func countingBackend(runs *atomic.Int64, cached bool) Backend {
	return func(ctx context.Context, scs []*eend.Scenario) <-chan eend.BatchResult {
		runs.Add(int64(len(scs)))
		out := make(chan eend.BatchResult, len(scs))
		go func() {
			defer close(out)
			for br := range eend.RunBatch(ctx, scs) {
				br.Cached = br.Cached || cached
				out <- br
			}
		}()
		return out
	}
}

// putFails is a store whose writes always fail.
type putFails struct{ cache.Store }

func (putFails) Put(string, []byte) error { return errors.New("disk full") }

// countingStore counts Get calls per key, from any goroutine.
type countingStore struct {
	cache.Store
	mu   sync.Mutex
	gets map[string]int
}

func (c *countingStore) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.Store.Get(key)
}

// collect runs both of Stream's steps and returns the outcomes by item
// index, failing the test on an item answered twice or not at all, or on a
// cache pass that delivers out of item order or off the calling goroutine's
// turn. early marks the items answered by the cache pass, before simulate
// was called.
func collect(t *testing.T, e *Evaluator, scs []*eend.Scenario) (out []Outcome, early []bool) {
	t.Helper()
	items := make([]Item, len(scs))
	for i, sc := range scs {
		items[i] = Item{Scenario: sc}
	}
	out = make([]Outcome, len(scs))
	seen := make([]bool, len(scs))
	var order []int // no lock: the race detector polices the sequential-delivery claim
	simulate := e.Stream(context.Background(), items, func(o Outcome) {
		if seen[o.Index] {
			t.Errorf("item %d delivered twice", o.Index)
		}
		seen[o.Index] = true
		out[o.Index] = o
		order = append(order, o.Index)
	})
	early = append([]bool(nil), seen...)
	// Duplicates ride with their group's first item, so the pass is ordered
	// by the first occurrence of each fingerprint.
	firstOf := func(i int) int { return slices.Index(scs, scs[i]) }
	if !slices.IsSortedFunc(order, func(a, b int) int { return firstOf(a) - firstOf(b) }) {
		t.Errorf("cache pass delivered items in order %v", order)
	}
	simulate()
	for i, ok := range seen {
		if !ok {
			t.Fatalf("item %d never delivered", i)
		}
		if out[i].Err != nil {
			t.Fatalf("item %d: %v", i, out[i].Err)
		}
	}
	return out, early
}

// TestStreamContract is the evaluation path's one contract, checked once
// for all three callers (sweep, search, fleet worker).
func TestStreamContract(t *testing.T) {
	scs := testScenarios(t, 3)
	want := make([]string, len(scs)) // Results fingerprint per scenario
	cold, _ := collect(t, &Evaluator{}, scs)
	for i, o := range cold {
		want[i] = o.Results.Fingerprint()
	}
	warm := func() cache.Store {
		m := cache.NewMem()
		collect(t, &Evaluator{Store: m}, scs)
		return m
	}
	corrupt := func() cache.Store {
		m := warm().(*cache.Mem)
		if err := m.Put(scs[1].Fingerprint(), []byte("{not results")); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cases := []struct {
		name       string
		store      func() cache.Store
		remoteHits bool  // the backend reports every result Cached
		batch      []int // indices into scs; repeats are duplicate fingerprints
		runs       int64 // scenarios the backend must be handed
		cached     []bool
	}{
		{name: "uncached", batch: []int{0, 1, 2}, runs: 3, cached: []bool{false, false, false}},
		{name: "cold", store: func() cache.Store { return cache.NewMem() }, batch: []int{0, 1, 2}, runs: 3, cached: []bool{false, false, false}},
		{name: "warm", store: warm, batch: []int{0, 1, 2}, runs: 0, cached: []bool{true, true, true}},
		{name: "corrupt entry is a miss", store: corrupt, batch: []int{0, 1, 2}, runs: 1, cached: []bool{true, false, true}},
		{name: "failing put still delivers", store: func() cache.Store { return putFails{cache.NewMem()} }, batch: []int{0, 1}, runs: 2, cached: []bool{false, false}},
		{name: "duplicates run once", store: func() cache.Store { return cache.NewMem() }, batch: []int{0, 1, 0, 0}, runs: 2, cached: []bool{false, false, false, false}},
		{name: "warm duplicates look up once", store: warm, batch: []int{2, 2}, runs: 0, cached: []bool{true, true}},
		{name: "remote cached propagates", remoteHits: true, batch: []int{0, 1}, runs: 2, cached: []bool{true, true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					var runs atomic.Int64
					e := &Evaluator{Backend: countingBackend(&runs, tc.remoteHits), Workers: workers}
					gets := &countingStore{gets: make(map[string]int)}
					if tc.store != nil {
						gets.Store = tc.store()
						e.Store = gets
					}
					// Every case has a Backend, so the in-process simulator stays
					// idle: in particular it never fires on a warm batch.
					OnSimulate = func(sc *eend.Scenario) { t.Errorf("in-process simulation of %s", sc.Fingerprint()) }
					defer func() { OnSimulate = nil }()
					batch := make([]*eend.Scenario, len(tc.batch))
					for i, k := range tc.batch {
						batch[i] = scs[k]
					}
					out, early := collect(t, e, batch)
					if runs.Load() != tc.runs {
						t.Fatalf("backend was handed %d scenarios, want %d", runs.Load(), tc.runs)
					}
					for fp, n := range gets.gets {
						if n != 1 {
							t.Errorf("fingerprint %s looked up %d times in one batch, want 1", fp, n)
						}
					}
					first := make(map[int]int) // scenario -> first slot carrying it
					for i, o := range out {
						k := tc.batch[i]
						if o.Cached != tc.cached[i] {
							t.Errorf("slot %d: cached=%v, want %v", i, o.Cached, tc.cached[i])
						}
						// Store hits — all of them — are delivered by the cache
						// pass, before any simulation starts.
						if hit := o.Cached && !tc.remoteHits; early[i] != hit {
							t.Errorf("slot %d: delivered by the cache pass = %v, want %v", i, early[i], hit)
						}
						if got := o.Results.Fingerprint(); got != want[k] {
							t.Errorf("slot %d: results %s, want %s", i, got, want[k])
						}
						if j, dup := first[k]; dup {
							// Duplicate slots must not alias: mutate one, the
							// other keeps its value.
							if o.Results == out[j].Results {
								t.Fatalf("slots %d and %d share one *Results", j, i)
							}
							o.Results.Sent++
							if out[j].Results.Sent == o.Results.Sent {
								t.Errorf("mutating slot %d changed slot %d", i, j)
							}
						} else {
							first[k] = i
						}
					}
					// Whatever the store held before, a store that accepts writes
					// now answers the whole batch without the backend.
					if _, broken := gets.Store.(putFails); e.Store != nil && !broken {
						before := runs.Load()
						again, _ := collect(t, e, batch)
						for i, o := range again {
							if !o.Cached || o.Results.Fingerprint() != want[tc.batch[i]] {
								t.Errorf("second pass slot %d: cached=%v", i, o.Cached)
							}
						}
						if runs.Load() != before {
							t.Errorf("second pass ran %d scenarios, want 0", runs.Load()-before)
						}
					}
				})
			}
		})
	}
}

// TestOne covers the single-scenario path the search objective uses: cold
// simulates in process and stores, warm answers from the store without the
// simulator, and a configured Backend replaces the in-process run.
func TestOne(t *testing.T) {
	sc := testScenarios(t, 1)[0]
	var sims atomic.Int64
	OnSimulate = func(*eend.Scenario) { sims.Add(1) }
	t.Cleanup(func() { OnSimulate = nil })

	e := &Evaluator{Store: cache.NewMem()}
	cold, cached, err := e.One(context.Background(), sc)
	if err != nil || cached || sims.Load() != 1 {
		t.Fatalf("cold: cached=%v sims=%d err=%v, want one fresh run", cached, sims.Load(), err)
	}
	warmRes, cached, err := e.One(context.Background(), sc)
	if err != nil || !cached || sims.Load() != 1 {
		t.Fatalf("warm: cached=%v sims=%d err=%v, want a hit and no run", cached, sims.Load(), err)
	}
	if warmRes.Fingerprint() != cold.Fingerprint() {
		t.Fatal("cached results differ from simulated ones")
	}

	var runs atomic.Int64
	remote := &Evaluator{Backend: countingBackend(&runs, false)}
	res, cached, err := remote.One(context.Background(), sc)
	if err != nil || cached || runs.Load() != 1 || sims.Load() != 1 {
		t.Fatalf("backend: cached=%v runs=%d sims=%d err=%v", cached, runs.Load(), sims.Load(), err)
	}
	if res.Fingerprint() != cold.Fingerprint() {
		t.Fatal("backend results differ from in-process ones")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Evaluator{}).One(ctx, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled One returned %v, want context.Canceled", err)
	}
}

// TestDeliverPanics: a panic in deliver reaches the caller of simulate and
// never re-lands a seed, so each item is delivered exactly once (the
// panicking call included), whether the misses run inline or on workers.
func TestDeliverPanics(t *testing.T) {
	for _, n := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			items := make([]Item, n)
			for i, sc := range testScenarios(t, n) {
				items[i] = Item{Scenario: sc}
			}
			delivered := make([]int, n)
			simulate := (&Evaluator{Workers: workers}).Stream(context.Background(), items, func(o Outcome) {
				if delivered[o.Index]++; o.Index == 0 {
					panic("deliver boom")
				}
			})
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "deliver boom") {
						t.Errorf("n=%d workers=%d: simulate recovered %v, want the deliver panic", n, workers, r)
					}
				}()
				simulate()
			}()
			if !slices.Equal(delivered, slices.Repeat([]int{1}, n)) {
				t.Errorf("n=%d workers=%d: deliveries per item %v, want one each", n, workers, delivered)
			}
		}
	}
}

// getPanics is a store whose Get panics.
type getPanics struct{ cache.Store }

func (getPanics) Get(string) ([]byte, bool, error) { panic("store get boom") }

// TestStoreGetPanics: a panicking Store.Get reaches the caller of Stream at
// every worker count, and nothing is simulated behind it, whether the
// cache pass runs inline or in chunks on the scheduler.
func TestStoreGetPanics(t *testing.T) {
	defer func() { OnSimulate = nil }()
	OnSimulate = func(*eend.Scenario) { t.Error("a lookup panic fell through to a simulation") }
	items := make([]Item, 4)
	for i, sc := range testScenarios(t, len(items)) {
		items[i] = Item{Scenario: sc}
	}
	for _, workers := range []int{1, 2, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "store get boom") {
					t.Errorf("workers=%d: Stream recovered %v, want the store's panic", workers, r)
				}
			}()
			e := &Evaluator{Store: getPanics{cache.NewMem()}, Workers: workers}
			e.Stream(context.Background(), items, func(o Outcome) {
				t.Errorf("workers=%d: item %d delivered past a lookup panic", workers, o.Index)
			})()
		}()
	}
}

// TestStreamSpans pins where the spans are emitted: a "replicate" span per
// seed under the item's own Span, and under it a "cache" span per lookup
// and a "sim" span per simulation, once per unique fingerprint — and the
// same tree whichever worker emits a leaf.
func TestStreamSpans(t *testing.T) {
	scs := testScenarios(t, 2)
	var base map[string]string // span id -> shape, at workers = 1
	for _, workers := range []int{1, 2, 8} {
		sink := obs.NewMemSink()
		tr := obs.NewTracer(obs.TraceID("eval-test"), sink)
		e := &Evaluator{Store: cache.NewMem(), Trace: tr, Workers: workers}
		parents := []obs.Span{tr.Start(obs.Span{}, "p", "0"), tr.Start(obs.Span{}, "p", "1"), tr.Start(obs.Span{}, "p", "2")}
		items := []Item{{scs[0], parents[0]}, {scs[1], parents[1]}, {scs[0], parents[2]}}
		e.Stream(context.Background(), items, func(Outcome) {})()
		cold := len(sink.Events())
		e.Stream(context.Background(), items, func(Outcome) {})()

		got := make(map[string]int) // "name/parent" -> count
		shape := make(map[string]string)
		for i, ev := range sink.Events() {
			got[ev.Name+"/"+ev.Parent]++
			if want := strconv.FormatBool(i >= cold); ev.Name == "cache" && ev.Attrs["hit"] != want {
				t.Errorf("workers=%d: cache leaf %d reports hit=%q, want %s", workers, i, ev.Attrs["hit"], want)
			}
			shape[ev.Span+"/"+ev.Attrs["hit"]] = ev.Name + "/" + ev.Parent
		}
		for i, it := range items {
			if n := got["replicate/"+parents[i].ID()]; n != 2 {
				t.Errorf("workers=%d: %d replicate spans under item %d, want one per pass", workers, n, i)
			}
			seed := tr.Start(parents[i], "replicate", it.Scenario.Fingerprint()).ID()
			for name, perPass := range map[string]int{"cache": 2, "sim": 1} {
				want := []int{1, 1, 0}[i] * perPass // item 2 duplicates item 0
				if n := got[name+"/"+seed]; n != want {
					t.Errorf("workers=%d: %d %q leaves under item %d's seed, want %d", workers, n, name, i, want)
				}
			}
		}
		if base == nil {
			base = shape
		} else if !maps.Equal(shape, base) {
			t.Errorf("workers=%d: span tree differs from workers=1:\n got %v\nwant %v", workers, shape, base)
		}
	}
}

// TestReplicatedMatchesRun pins what a replicated scenario is worth: One
// and Stream answer it, cold and warm, with exactly the Results sc.Run
// returns — the first replicate's run with the replicate summary attached —
// at any worker count.
func TestReplicatedMatchesRun(t *testing.T) {
	sc, err := testScenarios(t, 1)[0].With(eend.WithReplicates(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Fingerprint()
	for _, workers := range []int{1, 2, 8} {
		one := &Evaluator{Store: cache.NewMem(), Workers: workers}
		stream := &Evaluator{Store: cache.NewMem(), Workers: workers}
		for _, pass := range []string{"cold", "warm"} {
			res, _, err := one.One(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Fingerprint(); got != want {
				t.Errorf("workers=%d %s: One = %s, Run = %s", workers, pass, got, want)
			}
			out, _ := collect(t, stream, []*eend.Scenario{sc})
			if got := out[0].Results.Fingerprint(); got != want {
				t.Errorf("workers=%d %s: Stream = %s, Run = %s", workers, pass, got, want)
			}
		}
	}
}
