package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eend"
	"eend/internal/cache"
	"eend/internal/eval"
	"eend/internal/network"
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

func canonicals(scs []*eend.Scenario) []string {
	texts := make([]string, len(scs))
	for i, sc := range scs {
		texts[i] = sc.Canonical()
	}
	return texts
}

// countSims counts the scenarios the evaluator hands to the in-process
// simulator, through its one test hook; restored on test cleanup.
func countSims(t *testing.T) *atomic.Int64 {
	t.Helper()
	var sims atomic.Int64
	eval.OnSimulate = func(*eend.Scenario) { sims.Add(1) }
	t.Cleanup(func() { eval.OnSimulate = nil })
	return &sims
}

func TestEngineEvaluate(t *testing.T) {
	scs := testScenarios(t, 3)
	texts := canonicals(scs)
	e := Engine{Store: cache.NewMem(), Workers: 2}
	sims := countSims(t)

	res := e.Evaluate(t.Context(), texts)
	if len(res) != len(texts) {
		t.Fatalf("%d results for %d scenarios", len(res), len(texts))
	}
	for i, er := range res {
		if er.Error != "" {
			t.Fatalf("result %d: %s", i, er.Error)
		}
		if er.Fingerprint != scs[i].Fingerprint() {
			t.Errorf("result %d fingerprint %s, want %s", i, er.Fingerprint, scs[i].Fingerprint())
		}
		if er.Cached || er.Results == nil {
			t.Errorf("result %d: cached=%v results=%v on a cold cache", i, er.Cached, er.Results != nil)
		}
	}
	if sims.Load() != 3 {
		t.Fatalf("cold batch ran %d sims, want 3", sims.Load())
	}

	// Warm pass: every result from the cache, zero simulator invocations.
	res = e.Evaluate(t.Context(), texts)
	for i, er := range res {
		if er.Error != "" || !er.Cached || er.Results == nil {
			t.Fatalf("warm result %d = %+v, want cached", i, er)
		}
	}
	if sims.Load() != 3 {
		t.Fatalf("warm batch ran %d extra sims, want 0", sims.Load()-3)
	}
}

func TestEngineDeduplicatesWithinBatch(t *testing.T) {
	scs := testScenarios(t, 1)
	text := scs[0].Canonical()
	sims := countSims(t)
	e := Engine{Workers: 2}
	res := e.Evaluate(t.Context(), []string{text, text, text})
	if sims.Load() != 1 {
		t.Fatalf("duplicate batch ran %d sims, want 1", sims.Load())
	}
	fp := ""
	for i, er := range res {
		if er.Error != "" || er.Results == nil {
			t.Fatalf("result %d = %+v", i, er)
		}
		if fp == "" {
			fp = er.Results.Fingerprint()
		} else if er.Results.Fingerprint() != fp {
			t.Errorf("result %d diverged from its duplicates", i)
		}
	}
	// Fanned-out results must not alias one value.
	if res[0].Results == res[1].Results {
		t.Error("duplicate slots share one *Results")
	}
}

func TestEngineReportsPerScenarioErrors(t *testing.T) {
	scs := testScenarios(t, 1)
	res := Engine{}.Evaluate(t.Context(), []string{"not canonical", scs[0].Canonical()})
	if res[0].Error == "" {
		t.Error("malformed scenario did not error")
	}
	if res[1].Error != "" || res[1].Results == nil {
		t.Errorf("valid scenario failed alongside a malformed one: %+v", res[1])
	}

	// A cancelled batch still answers every slot: scenarios the scheduler
	// never dispatched report the cancellation, not an empty result.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for i, er := range (Engine{}).Evaluate(ctx, canonicals(testScenarios(t, 3))) {
		if er.Fingerprint == "" || er.Results != nil || er.Error != context.Canceled.Error() {
			t.Errorf("cancelled slot %d = %+v, want the context error", i, er)
		}
	}
}

// newWorkerServer serves the engine protocol the way eendd does, for
// exercising the Client against a real HTTP round trip.
func newWorkerServer(t *testing.T, e Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req EvalRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(EvalResponse{Results: e.Evaluate(r.Context(), req.Scenarios)})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClientRoundTrip(t *testing.T) {
	scs := testScenarios(t, 2)
	srv := newWorkerServer(t, Engine{Store: cache.NewMem()})
	c := NewClient(srv.URL, srv.Client())
	res, err := c.Evaluate(t.Context(), canonicals(scs))
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range res {
		if er.Error != "" || er.Fingerprint != scs[i].Fingerprint() {
			t.Errorf("result %d = %+v", i, er)
		}
	}
}

func TestClientTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	if _, err := NewClient(srv.URL, nil).Evaluate(t.Context(), []string{"x"}); err == nil {
		t.Fatal("dead worker did not error")
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"results": []}`)) // wrong cardinality
	}))
	defer bad.Close()
	if _, err := NewClient(bad.URL, bad.Client()).Evaluate(t.Context(), []string{"x"}); err == nil {
		t.Fatal("short response did not error")
	}
}

// TestCoordinatorMatchesLocalRun is the tentpole contract: a batch spread
// across two workers merges bit-identically to eend.RunBatch on one
// machine.
func TestCoordinatorMatchesLocalRun(t *testing.T) {
	// More than one shard, so the merge crosses a shard boundary.
	scs := testScenarios(t, shardSize+3)
	// A duplicate shards like any other scenario (deduplication is the
	// evaluator's job) and still merges positionally.
	scs = append(scs, scs[0])

	want := make(map[int]string)
	for br := range eend.RunBatch(t.Context(), scs, eend.Workers(1)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		want[br.Index] = br.Results.Fingerprint()
	}

	co := &Coordinator{
		Workers: []Evaluator{
			&Local{Name: "w1", Engine: Engine{Store: cache.NewMem()}},
			&Local{Name: "w2", Engine: Engine{Store: cache.NewMem()}},
		},
	}
	got := make(map[int]string)
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		got[br.Index] = br.Results.Fingerprint()
	}
	if len(got) != len(scs) {
		t.Fatalf("%d results for %d scenarios", len(got), len(scs))
	}
	for i, fp := range want {
		if got[i] != fp {
			t.Errorf("index %d: distributed %s != local %s", i, got[i], fp)
		}
	}
}

// flaky is an Evaluator that fails its first n calls, then delegates.
type flaky struct {
	Evaluator
	left atomic.Int64
}

func (f *flaky) Addr() string { return "flaky-" + f.Evaluator.Addr() }

func (f *flaky) Evaluate(ctx context.Context, scs []string) ([]EvalResult, error) {
	if f.left.Add(-1) >= 0 {
		return nil, fmt.Errorf("injected fault")
	}
	return f.Evaluator.Evaluate(ctx, scs)
}

// dead is an Evaluator that always fails (a crashed daemon).
type dead struct{}

func (dead) Addr() string { return "dead" }
func (dead) Evaluate(context.Context, []string) ([]EvalResult, error) {
	return nil, fmt.Errorf("connection refused")
}

// TestCoordinatorRetriesOnSurvivor kills one of two workers and asserts
// the batch still completes, with the retries observable via OnRetry.
func TestCoordinatorRetriesOnSurvivor(t *testing.T) {
	// Two shards: round-robin dispatch starts one of them on the dead worker.
	scs := testScenarios(t, shardSize+2)
	var retries atomic.Int64
	co := &Coordinator{
		Workers: []Evaluator{
			dead{},
			&Local{Name: "survivor", Engine: Engine{Store: cache.NewMem()}},
		},
		OnRetry: func(RetryEvent) { retries.Add(1) },
	}
	n := 0
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err != nil {
			t.Fatalf("index %d: %v", br.Index, br.Err)
		}
		n++
	}
	if n != len(scs) {
		t.Fatalf("%d results for %d scenarios", n, len(scs))
	}
	if retries.Load() == 0 {
		t.Fatal("no retries recorded despite a dead worker")
	}
}

// TestCoordinatorTransientFaultRecovers covers the flaky-not-dead case: a
// worker that fails once is retried (possibly on itself) and the shard
// completes.
func TestCoordinatorTransientFaultRecovers(t *testing.T) {
	scs := testScenarios(t, 2)
	f := &flaky{Evaluator: &Local{Name: "w", Engine: Engine{}}}
	f.left.Store(1)
	co := &Coordinator{Workers: []Evaluator{f}}
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err != nil {
			t.Fatalf("index %d: %v", br.Index, br.Err)
		}
	}
}

// TestCoordinatorAllWorkersDead asserts a fully failed shard reports an
// error on every index it covered instead of hanging or panicking.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	scs := testScenarios(t, 3)
	co := &Coordinator{Workers: []Evaluator{dead{}, dead{}}}
	n := 0
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err == nil {
			t.Fatalf("index %d succeeded with every worker dead", br.Index)
		}
		n++
	}
	if n != len(scs) {
		t.Fatalf("%d error results for %d scenarios", n, len(scs))
	}
}

// panicking is an Evaluator whose every call panics.
type panicking struct{}

func (panicking) Addr() string { return "panicking" }
func (panicking) Evaluate(context.Context, []string) ([]EvalResult, error) {
	panic("worker boom")
}

// TestCoordinatorPanickingWorker: a shard whose worker call panics fails
// each of its scenarios with the panic, exactly once, and the batch still
// closes.
func TestCoordinatorPanickingWorker(t *testing.T) {
	scs := testScenarios(t, shardSize+3)
	co := &Coordinator{Workers: []Evaluator{panicking{}}}
	seen := make(map[int]int)
	ch := co.RunBatch(t.Context(), scs)
	for {
		select {
		case br, ok := <-ch:
			if !ok {
				for i := range scs {
					if seen[i] != 1 {
						t.Errorf("index %d: %d results, want 1", i, seen[i])
					}
				}
				return
			}
			if br.Err == nil || !strings.Contains(br.Err.Error(), "worker boom") {
				t.Errorf("index %d: err = %v, want the worker's panic", br.Index, br.Err)
			}
			seen[br.Index]++
		case <-time.After(10 * time.Second):
			t.Fatal("batch did not close after its shards panicked")
		}
	}
}

// lying is an Evaluator that reports results under the wrong fingerprint
// (a worker running a divergent simulator build).
type lying struct{ inner Evaluator }

func (l lying) Addr() string { return "lying" }
func (l lying) Evaluate(ctx context.Context, scs []string) ([]EvalResult, error) {
	res, err := l.inner.Evaluate(ctx, scs)
	for i := range res {
		res[i].Fingerprint = "0000000000000000000000000000000000000000000000000000000000000000"
	}
	return res, err
}

func TestCoordinatorRejectsFingerprintMismatch(t *testing.T) {
	scs := testScenarios(t, 1)
	co := &Coordinator{Workers: []Evaluator{lying{inner: &Local{}}}}
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err == nil {
			t.Fatal("mismatched fingerprint accepted")
		}
	}
}

// TestCoordinatorSharedRemoteCache wires two workers to one shared cache
// (tiered over a common remote) and asserts the second pass runs zero
// simulations anywhere in the fleet.
func TestCoordinatorSharedRemoteCache(t *testing.T) {
	shared := cache.NewMem()
	srv := httptest.NewServer(cache.Handler(shared))
	defer srv.Close()
	sims := countSims(t)

	mk := func(name string) *Local {
		return &Local{Name: name, Engine: Engine{
			Store: cache.NewTiered(cache.NewMem(), cache.NewRemote(srv.URL, srv.Client())),
		}}
	}
	// Two shards, so both workers of each fleet serve one.
	scs := testScenarios(t, shardSize+2)
	run := func(co *Coordinator) {
		t.Helper()
		for br := range co.RunBatch(t.Context(), scs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
		}
	}
	run(&Coordinator{Workers: []Evaluator{mk("w1"), mk("w2")}})
	cold := sims.Load()
	if cold != int64(len(scs)) {
		t.Fatalf("cold fleet ran %d sims, want %d", cold, len(scs))
	}

	// Fresh workers with cold local tiers, same shared remote: every
	// result the first fleet computed was written through, so this pass
	// must be answered entirely from the fleet cache — zero simulations.
	co := &Coordinator{Workers: []Evaluator{mk("w3"), mk("w4")}}
	for br := range co.RunBatch(t.Context(), scs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if !br.Cached {
			t.Errorf("index %d was not served from the fleet cache", br.Index)
		}
	}
	if sims.Load() != cold {
		t.Fatalf("warm fleet ran %d extra sims, want 0", sims.Load()-cold)
	}
}

// TestReplicatedSeedsShareOneCache: a replicated scenario is cached one
// seed at a time whoever evaluates it. Replicate 0 is the unreplicated
// scenario, so a replicates=3 evaluation after a single run simulates
// only seeds 1 and 2; the next one simulates nothing, and a fleet worker
// over the same store answers the replicated scenario from it. The base
// scenario is a parsed canonical encoding, as a worker sees it: its flows
// are materialized, so its replicates are the ones the worker derives.
func TestReplicatedSeedsShareOneCache(t *testing.T) {
	sc, err := eend.ParseCanonical(testScenarios(t, 1)[0].Canonical())
	if err != nil {
		t.Fatal(err)
	}
	scR, err := sc.With(eend.WithReplicates(3))
	if err != nil {
		t.Fatal(err)
	}
	var simulated []string
	eval.OnSimulate = func(s *eend.Scenario) { simulated = append(simulated, s.Fingerprint()) }
	t.Cleanup(func() { eval.OnSimulate = nil })
	store := cache.NewMem()
	ev := &eval.Evaluator{Store: store}

	if _, cached, err := ev.One(t.Context(), sc); err != nil || cached {
		t.Fatalf("single run: cached=%v err=%v, want a fresh run", cached, err)
	}
	simulated = nil
	if _, cached, err := ev.One(t.Context(), scR); err != nil || cached {
		t.Fatalf("replicated: cached=%v err=%v, want fresh seeds", cached, err)
	}
	var want []string
	for k := 1; k < 3; k++ {
		rep, err := scR.Replicate(k)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep.Fingerprint())
	}
	if fmt.Sprint(simulated) != fmt.Sprint(want) {
		t.Fatalf("replicated evaluation simulated %v, want seeds 1 and 2 %v", simulated, want)
	}

	simulated = nil
	if _, cached, err := ev.One(t.Context(), scR); err != nil || !cached || len(simulated) != 0 {
		t.Fatalf("second replicated evaluation: cached=%v err=%v simulated %v, want a full hit", cached, err, simulated)
	}
	local := &Local{Engine: Engine{Store: store}}
	res, err := local.Evaluate(t.Context(), []string{scR.Canonical()})
	if err != nil || res[0].Error != "" || !res[0].Cached || len(simulated) != 0 {
		t.Fatalf("fleet worker: err=%v result=%+v simulated %v, want a cached answer", err, res[0], simulated)
	}
}

// TestEvalResponseEncode: the codec writes a response byte for byte as
// encoding/json does, compact and under json.Encoder's SetIndent("", "  "),
// whichever of the omitempty fields are set.
func TestEvalResponseEncode(t *testing.T) {
	res, err := testScenarios(t, 1)[0].Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []EvalResponse{
		{},
		{Results: []EvalResult{}},
		{Version: "v1 <dev>", Results: []EvalResult{
			{Fingerprint: "ab12", Cached: true, Results: res, WorkerVersion: "not on the wire"},
			{Error: `parse "x": bad & worse`},
			{},
			{Results: &eend.Results{Stack: "é"}},
		}},
	} {
		for _, indent := range []bool{false, true} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			if indent {
				enc.SetIndent("", "  ")
			}
			if err := enc.Encode(resp); err != nil {
				t.Fatal(err)
			}
			w := network.Writer{Indent: indent}
			if resp.Encode(&w); string(w.Buf)+"\n" != want.String() || w.Err() != nil {
				t.Fatalf("indent %v (%v):\n%s\nwant:\n%s", indent, w.Err(), w.Buf, want.String())
			}
		}
	}
}
