package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eend"
	"eend/internal/dist"
	"eend/sweep"
)

// newWorker starts a real HTTP eendd instance for fleet tests and returns
// its base URL plus the handler (for /metrics scraping without a client).
func newWorker(t *testing.T, cfg serverConfig) (string, http.Handler) {
	t.Helper()
	h, err := newServerWith(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL, h
}

// metricValue scrapes one counter (or one labelled sample) out of a
// Prometheus text exposition.
func metricValue(t *testing.T, h http.Handler, sample string) uint64 {
	t.Helper()
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in /metrics", sample)
	return 0
}

func testCanonical(t *testing.T, seed uint64) string {
	t.Helper()
	sc, err := eend.NewScenario(
		eend.WithSeed(seed), eend.WithNodes(8), eend.WithField(250, 250),
		eend.WithRandomFlows(2, 2048, 128), eend.WithDuration(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Canonical()
}

// TestEvaluateEndpoint: the worker protocol runs a batch once, serves the
// repeat from cache, and /metrics reflects both.
func TestEvaluateEndpoint(t *testing.T) {
	_, h := newWorker(t, serverConfig{cacheDir: t.TempDir()})

	body, _ := json.Marshal(dist.EvalRequest{Scenarios: []string{testCanonical(t, 1)}})
	evaluate := func() dist.EvalResponse {
		w := post(t, h, "/v1/evaluate", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("POST /v1/evaluate: status %d, body %s", w.Code, w.Body)
		}
		var resp dist.EvalResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cold := evaluate()
	if len(cold.Results) != 1 || cold.Results[0].Error != "" || cold.Results[0].Cached {
		t.Fatalf("cold evaluate = %+v, want one uncached success", cold.Results)
	}
	warm := evaluate()
	if !warm.Results[0].Cached {
		t.Fatalf("warm evaluate not served from cache: %+v", warm.Results[0])
	}
	if warm.Results[0].Fingerprint != cold.Results[0].Fingerprint {
		t.Fatal("fingerprint changed between evaluations")
	}
	if got := metricValue(t, h, "eend_evaluations_total"); got != 1 {
		t.Fatalf("eend_evaluations_total = %d, want 1 (cache hit must not count)", got)
	}
	if got := metricValue(t, h, `eend_cache_hits_total{tier="local"}`); got != 1 {
		t.Fatalf(`local cache hits = %d, want 1`, got)
	}
}

func TestEvaluateRejectsBadBatches(t *testing.T) {
	_, h := newWorker(t, serverConfig{})
	for name, body := range map[string]string{
		"empty":     `{"scenarios": []}`,
		"malformed": `{"scenarios": ["not a scenario"], "unknown": 1}`,
	} {
		if w := post(t, h, "/v1/evaluate", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s batch: status %d, want 400", name, w.Code)
		}
	}
	// A malformed scenario inside a well-formed batch is a per-slot error,
	// not a request error: the rest of the shard still runs.
	w := post(t, h, "/v1/evaluate", `{"scenarios": ["garbage"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("garbage scenario: status %d, want 200 with per-slot error", w.Code)
	}
	var resp dist.EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == "" {
		t.Fatal("garbage scenario produced no per-slot error")
	}
}

func TestCacheEndpointsUnavailableWithoutStore(t *testing.T) {
	_, h := newWorker(t, serverConfig{})
	if w := get(t, h, "/v1/cache/docprobe0000"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cache GET without a store: status %d, want 503", w.Code)
	}
}

// runFleetSweep runs the grid through a distributed runner and returns the
// results in grid order.
func runFleetSweep(t *testing.T, r sweep.Runner, spec string) []sweep.Result {
	t.Helper()
	g, err := sweep.ParseGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := r.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := prep.Stream(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var out []sweep.Result
	for sr := range ch {
		if sr.Err != nil {
			t.Fatalf("point %d: %v", sr.Point.Index, sr.Err)
		}
		out = append(out, sr)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Point.Index < out[k].Point.Index })
	return out
}

// TestFleetSweepMatchesLocalRun is the multi-daemon end-to-end check: a
// sweep sharded across two real eendd workers is bit-identical to the same
// sweep run locally with workers=1, and a second pass through two fresh
// workers peered at the first pair is served entirely from the shared
// remote cache — zero simulations anywhere.
func TestFleetSweepMatchesLocalRun(t *testing.T) {
	const grid = "nodes=5 seed=1..10 field=200 dur=25s flows=1 rate=2"

	w1, h1 := newWorker(t, serverConfig{cacheDir: t.TempDir()})
	w2, h2 := newWorker(t, serverConfig{cacheDir: t.TempDir()})

	local := runFleetSweep(t, sweep.Runner{Workers: 1}, grid)
	fleet := runFleetSweep(t, sweep.Runner{Workers: 2, Remote: []string{w1, w2}}, grid)

	if len(local) != len(fleet) {
		t.Fatalf("local ran %d points, fleet %d", len(local), len(fleet))
	}
	for i := range local {
		if local[i].Fingerprint != fleet[i].Fingerprint {
			t.Fatalf("point %d: fingerprint diverged (local %s, fleet %s)",
				i, local[i].Fingerprint, fleet[i].Fingerprint)
		}
		lj, _ := json.Marshal(local[i].Results)
		fj, _ := json.Marshal(fleet[i].Results)
		if string(lj) != string(fj) {
			t.Fatalf("point %d: results not bit-identical to the local run:\nlocal %s\nfleet %s", i, lj, fj)
		}
	}
	simsCold := metricValue(t, h1, "eend_evaluations_total") + metricValue(t, h2, "eend_evaluations_total")
	if int(simsCold) != len(local) {
		t.Fatalf("cold fleet pass ran %d simulations for %d unique points", simsCold, len(local))
	}

	// Second pass: fresh workers, empty local caches, peered at the warm
	// pair. Everything must come over the cache wire.
	w3, h3 := newWorker(t, serverConfig{peers: []string{w1, w2}})
	w4, h4 := newWorker(t, serverConfig{peers: []string{w1, w2}})
	warm := runFleetSweep(t, sweep.Runner{Workers: 2, Remote: []string{w3, w4}}, grid)
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("warm point %d not served from cache", i)
		}
		if warm[i].Fingerprint != local[i].Fingerprint {
			t.Fatalf("warm point %d: fingerprint diverged", i)
		}
	}
	simsWarm := metricValue(t, h3, "eend_evaluations_total") + metricValue(t, h4, "eend_evaluations_total")
	if simsWarm != 0 {
		t.Fatalf("warm pass ran %d simulations, want 0 (shared remote cache)", simsWarm)
	}
	remoteHits := metricValue(t, h3, `eend_cache_hits_total{tier="remote"}`) +
		metricValue(t, h4, `eend_cache_hits_total{tier="remote"}`)
	if int(remoteHits) != len(local) {
		t.Fatalf("warm pass made %d remote cache hits, want %d (one per unique point)", remoteHits, len(local))
	}
	// The warm pair never re-simulated either: its counters are unchanged.
	if simsAfter := metricValue(t, h1, "eend_evaluations_total") +
		metricValue(t, h2, "eend_evaluations_total"); simsAfter != simsCold {
		t.Fatalf("warm pass re-simulated on the warm pair (%d -> %d)", simsCold, simsAfter)
	}
}

// TestMutuallyPeeredDaemonsDoNotLoop: two daemons peered at each other
// must not bounce cache traffic back and forth. The wire serves each
// daemon's local tier, so a write-through Put (or a relayed Get) from one
// peer terminates at the other instead of re-entering the fleet — the
// deployment this guards is the documented two-daemon quickstart, where
// every daemon lists every other as a peer.
func TestMutuallyPeeredDaemonsDoNotLoop(t *testing.T) {
	// Each server's URL is needed to build the *other* handler, so the
	// servers start with swappable handlers and get the real ones after.
	var h1, h2 atomic.Value
	swap := func(v *atomic.Value) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			v.Load().(http.Handler).ServeHTTP(w, r)
		}
	}
	s1 := httptest.NewServer(swap(&h1))
	t.Cleanup(s1.Close)
	s2 := httptest.NewServer(swap(&h2))
	t.Cleanup(s2.Close)
	d1, err := newServerWith(t.Context(), serverConfig{peers: []string{s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := newServerWith(t.Context(), serverConfig{peers: []string{s1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	h1.Store(d1)
	h2.Store(d2)

	body, _ := json.Marshal(dist.EvalRequest{Scenarios: []string{testCanonical(t, 7)}})
	done := make(chan dist.EvalResponse, 1)
	go func() {
		w := post(t, d1, "/v1/evaluate", string(body))
		var resp dist.EvalResponse
		if w.Code == http.StatusOK {
			_ = json.Unmarshal(w.Body.Bytes(), &resp)
		}
		done <- resp
	}()
	var resp dist.EvalResponse
	select {
	case resp = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("evaluate on a mutually peered daemon did not return: cache traffic is looping between the peers")
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("evaluate = %+v, want one success", resp.Results)
	}

	// The write-through still landed exactly once on the peer: its wire
	// serves the entry from its local tier.
	fp := resp.Results[0].Fingerprint
	if w := get(t, d2, "/v1/cache/"+fp); w.Code != http.StatusOK {
		t.Fatalf("peer GET /v1/cache/%s: status %d, want 200 (write-through missing)", fp, w.Code)
	}
}

// TestFleetSweepSurvivesDeadWorker is the fault-injection check: one of
// the two workers is down from the start, and the sweep still completes
// by retrying its shards on the survivor.
func TestFleetSweepSurvivesDeadWorker(t *testing.T) {
	live, _ := newWorker(t, serverConfig{cacheDir: t.TempDir()})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the URL now refuses connections

	var retries atomic.Int64
	r := sweep.Runner{
		Workers: 2,
		Remote:  []string{dead.URL, live},
		OnRetry: func(string, error) { retries.Add(1) },
	}
	results := runFleetSweep(t, r, "nodes=5 seed=1..10 field=200 dur=25s flows=1 rate=2")
	if len(results) != 10 {
		t.Fatalf("sweep completed %d of 10 points", len(results))
	}
	if retries.Load() == 0 {
		t.Fatal("no shard retries recorded despite a dead worker")
	}
}

// TestSweepSSE: GET /v1/sweeps/{id} with Accept: text/event-stream
// streams progress frames and closes after the terminal snapshot.
func TestSweepSSE(t *testing.T) {
	h, err := newServerWith(t.Context(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, h, "/v1/sweeps", `{"grid": "nodes=5 seed=1,2 field=200 dur=25s flows=1 rate=2"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d, body %s", w.Code, w.Body)
	}
	var st sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	// The handler holds the stream open until the job leaves Running, so a
	// synchronous ServeHTTP both waits for completion and collects frames.
	req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+st.ID, nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}
	frames := strings.Split(strings.TrimSpace(rec.Body.String()), "\n\n")
	if len(frames) == 0 {
		t.Fatal("no SSE frames received")
	}
	last, ok := strings.CutPrefix(frames[len(frames)-1], "data: ")
	if !ok {
		t.Fatalf("malformed SSE frame %q", frames[len(frames)-1])
	}
	var final sweepStatus
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" {
		t.Fatalf("final SSE frame status = %q, want done", final.Status)
	}
	if len(final.Results) != 2 {
		t.Fatalf("final SSE frame carries %d results, want 2", len(final.Results))
	}
}

// TestOptimizeSSE mirrors the sweep stream on the optimize endpoint.
func TestOptimizeSSE(t *testing.T) {
	h, err := newServerWith(t.Context(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, h, "/v1/optimize", `{
		"scenario": {
			"seed": 1, "nodes": 8, "topology": "uniform",
			"field": {"width": 250, "height": 250},
			"duration": "20s",
			"random_flows": {"count": 2, "rate_bps": 1024}
		},
		"heuristic": "greedy", "iterations": 5
	}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/optimize: status %d, body %s", w.Code, w.Body)
	}
	var st optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/optimize/"+st.ID, nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	frames := strings.Split(strings.TrimSpace(rec.Body.String()), "\n\n")
	last, ok := strings.CutPrefix(frames[len(frames)-1], "data: ")
	if !ok {
		t.Fatalf("malformed SSE frame %q", frames[len(frames)-1])
	}
	var final optStatus
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("final SSE frame = status %q result %v, want done with a result", final.Status, final.Result)
	}
}

// TestMetricsExposition: the endpoint serves the Prometheus text format
// with every documented family present even on a fresh, cacheless daemon.
func TestMetricsExposition(t *testing.T) {
	_, h := newWorker(t, serverConfig{})
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q, want text/plain", ct)
	}
	body := w.Body.String()
	for _, family := range []string{
		"eend_evaluations_total", "eend_shard_retries_total",
		"eend_cache_hits_total", "eend_cache_misses_total",
		"eend_cache_corrupt_total", "eend_jobs_inflight",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from exposition", family)
		}
	}
	for _, sample := range []string{
		`eend_jobs_inflight{kind="sweep"} 0`, `eend_jobs_inflight{kind="optimize"} 0`,
	} {
		if !strings.Contains(body, sample) {
			t.Errorf("sample %q missing from exposition", sample)
		}
	}
}

// TestJournaledDaemonReplaysInterruptedJobs: with -state, a sweep that was
// running when the daemon died reappears after restart as a failed job.
func TestJournaledDaemonReplaysInterruptedJobs(t *testing.T) {
	state := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	h, err := newServerWith(ctx, serverConfig{stateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	// A sweep long enough to still be running when we "crash", however late
	// this goroutine gets to the cancel below: forty points of a second's
	// work between them, where four points of ten nodes finished inside one
	// scheduling hiccup (a done job is not replayed: 404, 1 run in 30 under
	// load). The cancel aborts it, so the test runs no longer.
	w := post(t, h, "/v1/sweeps", `{"grid": "nodes=30 seed=1..40 field=300 dur=300s flows=4 rate=4", "workers": 1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d, body %s", w.Code, w.Body)
	}
	var st sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	cancel() // daemon dies with the job in flight

	h2, err := newServerWith(t.Context(), serverConfig{stateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted job may take a moment to settle only in the dying
	// process; the journal itself already has it as running, so the new
	// daemon sees it immediately.
	w = get(t, h2, "/v1/sweeps/"+st.ID)
	if w.Code != http.StatusOK {
		t.Fatalf("replayed job %s not found after restart: status %d", st.ID, w.Code)
	}
	var replayed sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.Status != "failed" || !strings.Contains(replayed.Error, "interrupted") {
		t.Fatalf("replayed job = status %q error %q, want failed/interrupted", replayed.Status, replayed.Error)
	}
	// The dying daemon's job settles before the next test swaps the
	// simulator hook it reads.
	waitDone(t, h, st.ID)
}
