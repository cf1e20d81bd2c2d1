package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"eend/internal/obs"
)

// TestMetricsConformance: run a sweep so the process-wide registry has
// live samples, then lint the full /metrics exposition (server families +
// obs.Default concatenated) against the Prometheus text format, and check
// the observability layer's new families — including its histograms — are
// all present.
func TestMetricsConformance(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	w := post(t, h, "/v1/sweeps", sweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, created.ID)

	mw := get(t, h, "/metrics")
	if mw.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mw.Code)
	}
	body := mw.Body.String()
	for _, err := range obs.Lint(body) {
		t.Errorf("exposition lint: %v", err)
	}

	families := []string{
		// Server-scoped (pinned since they first shipped).
		"eend_evaluations_total", "eend_shard_retries_total",
		"eend_cache_hits_total", "eend_cache_misses_total",
		"eend_cache_corrupt_total", "eend_jobs_inflight", "eend_build_info",
		// Process-wide: sim kernel and protocol layers.
		"eend_sim_events_total", "eend_sim_runs_total",
		"eend_sim_wall_seconds_total", "eend_sim_speedup_ratio",
		"eend_sim_timers_total",
		// Execution scheduler.
		"eend_exec_queue_depth", "eend_exec_items_total",
		"eend_exec_busy_seconds_total", "eend_exec_item_seconds",
		// Cache backends and tiering.
		"eend_cache_backend_hits_total", "eend_cache_backend_misses_total",
		"eend_cache_op_seconds", "eend_cache_backfills_total",
		// Fleet coordinator.
		"eend_dist_dispatch_seconds", "eend_dist_shards_total",
		"eend_dist_bytes_total", "eend_dist_retries_total",
		// Sweep and search layers.
		"eend_sweep_points_total",
		"eend_opt_steps_total", "eend_opt_eval_seconds", "eend_opt_searches_total",
		"eend_opt_proposals_total", "eend_opt_reroutes_total",
	}
	for _, f := range families {
		if !strings.Contains(body, "# TYPE "+f+" ") {
			t.Errorf("family %s missing from exposition", f)
		}
	}
	for _, hist := range []string{
		"eend_sim_speedup_ratio", "eend_exec_item_seconds",
		"eend_cache_op_seconds", "eend_dist_dispatch_seconds", "eend_opt_eval_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+hist+" histogram") {
			t.Errorf("%s is not exposed as a histogram", hist)
		}
	}
	if !strings.Contains(body, `eend_build_info{version=`) {
		t.Error("eend_build_info has no version label")
	}
}

// TestSweepTraceEndpoint: a finished sweep serves its span tree as JSON,
// the status carries the matching trace id (in plain snapshots and so in
// every SSE frame), and the tree reaches from the sweep root to sim leaves.
func TestSweepTraceEndpoint(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	w := post(t, h, "/v1/sweeps", sweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.TraceID == "" {
		t.Fatal("created sweep has no trace_id")
	}
	st := waitDone(t, h, created.ID)
	if st.TraceID != created.TraceID {
		t.Fatalf("trace_id drifted: %q -> %q", created.TraceID, st.TraceID)
	}

	tw := get(t, h, "/v1/sweeps/"+created.ID+"/trace")
	if tw.Code != http.StatusOK {
		t.Fatalf("GET trace: status %d, body %s", tw.Code, tw.Body)
	}
	var tr traceResponse
	if err := json.Unmarshal(tw.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != created.TraceID {
		t.Fatalf("trace response id %q, want %q", tr.TraceID, created.TraceID)
	}
	names := map[string]int{}
	for _, ev := range tr.Events {
		names[ev.Name]++
	}
	if names["sweep"] != 1 || names["point"] != 2 || names["sim"] != 2 {
		t.Fatalf("span census %v, want 1 sweep / 2 points / 2 sims", names)
	}

	if w := get(t, h, "/v1/sweeps/no-such-job/trace"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d", w.Code)
	}
}

// TestOptimizeTraceEndpoint: an optimize job records a search span tree
// with a best-so-far timeline, addressable by the status's trace id.
func TestOptimizeTraceEndpoint(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	w := post(t, h, "/v1/optimize", `{
		"scenario": {"nodes": 12, "seed": 1, "random_flows": {"count": 3, "rate_bps": 1000}},
		"heuristic": "anneal", "iterations": 40
	}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.TraceID == "" {
		t.Fatal("created optimization has no trace_id")
	}
	waitOptDone(t, h, created.ID)

	tw := get(t, h, "/v1/optimize/"+created.ID+"/trace")
	if tw.Code != http.StatusOK {
		t.Fatalf("GET trace: status %d, body %s", tw.Code, tw.Body)
	}
	var tr traceResponse
	if err := json.Unmarshal(tw.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var searches, evals, bests int
	for _, ev := range tr.Events {
		switch ev.Name {
		case "search":
			searches++
		case "evaluate":
			evals++
		case "best":
			bests++
		}
	}
	if searches != 1 || evals == 0 || bests == 0 {
		t.Fatalf("span census: %d search / %d evaluate / %d best — want 1/>0/>0",
			searches, evals, bests)
	}
}

// TestHealthzReportsVersion: the liveness probe carries the build
// identity, so fleet homogeneity is checkable with curl.
func TestHealthzReportsVersion(t *testing.T) {
	h := newServer(context.Background(), "")
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["version"] == "" {
		t.Fatalf("healthz = %v, want status ok with a version", body)
	}
}

// TestPprofGatedByFlag: the profiling handlers exist only when asked for.
func TestPprofGatedByFlag(t *testing.T) {
	off, err := newServerWith(context.Background(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w := get(t, off, "/debug/pprof/cmdline"); w.Code == http.StatusOK {
		t.Fatal("pprof served without the flag")
	}
	on, err := newServerWith(context.Background(), serverConfig{pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := get(t, on, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Fatalf("pprof with flag: status %d", w.Code)
	}
}
