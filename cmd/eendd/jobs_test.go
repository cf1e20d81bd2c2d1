package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"eend"
	"eend/internal/dist"
	"eend/internal/eval"
	"eend/internal/exec"
)

// TestWorkersNormalizedInOnePlace: sweep and optimize requests share the
// execution runtime's worker normalization — negative and zero become
// GOMAXPROCS, absurd requests clamp to the hard cap — and the job status
// reports the normalized value.
func TestWorkersNormalizedInOnePlace(t *testing.T) {
	h := newServer(context.Background(), "")
	cases := []struct {
		req  int
		want int
	}{
		{req: 0, want: runtime.GOMAXPROCS(0)},
		{req: -7, want: runtime.GOMAXPROCS(0)},
		{req: 2, want: 2},
		{req: 1 << 20, want: exec.MaxWorkers},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"grid": "nodes=5 seed=1 field=200 dur=25s flows=1 rate=2", "workers": %d}`, tc.req)
		w := post(t, h, "/v1/sweeps", body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("sweep workers=%d: status %d, body %s", tc.req, w.Code, w.Body)
		}
		var st sweepStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Workers != tc.want {
			t.Errorf("sweep workers=%d normalized to %d, want %d", tc.req, st.Workers, tc.want)
		}
		waitDone(t, h, st.ID)

		optBody := fmt.Sprintf(`{
			"scenario": {"seed": 1, "nodes": 10, "topology": "cluster",
				"field": {"width": 300, "height": 300}, "duration": "30s",
				"random_flows": {"count": 2, "rate_bps": 2048}},
			"heuristic": "restart", "iterations": 30, "restarts": 2, "workers": %d}`, tc.req)
		w = post(t, h, "/v1/optimize", optBody)
		if w.Code != http.StatusAccepted {
			t.Fatalf("optimize workers=%d: status %d, body %s", tc.req, w.Code, w.Body)
		}
		var ost optStatus
		if err := json.Unmarshal(w.Body.Bytes(), &ost); err != nil {
			t.Fatal(err)
		}
		if ost.Workers != tc.want {
			t.Errorf("optimize workers=%d normalized to %d, want %d", tc.req, ost.Workers, tc.want)
		}
		waitOptDone(t, h, ost.ID)
	}
}

// TestRetentionFlagSharedByBothEndpoints: the configurable retention cap
// (the one internal/jobs option that replaced the two drifting constants)
// applies to sweeps and optimizations alike.
func TestRetentionFlagSharedByBothEndpoints(t *testing.T) {
	h, err := newServerWith(context.Background(), serverConfig{retainJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w := post(t, h, "/v1/sweeps",
			fmt.Sprintf(`{"grid": "nodes=5 seed=%d field=200 dur=25s flows=1 rate=2"}`, i+1))
		if w.Code != http.StatusAccepted {
			t.Fatalf("sweep %d: status %d, body %s", i, w.Code, w.Body)
		}
		var st sweepStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		waitDone(t, h, st.ID)
	}
	w := get(t, h, "/v1/sweeps")
	var list map[string][]sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if got := len(list["sweeps"]); got != 2 {
		t.Fatalf("retained %d sweeps, want 2", got)
	}
	if list["sweeps"][0].ID != "sweep-4" || list["sweeps"][1].ID != "sweep-3" {
		t.Fatalf("retained the wrong sweeps: %+v", list["sweeps"])
	}
	if w := get(t, h, "/v1/sweeps/sweep-1"); w.Code != http.StatusNotFound {
		t.Fatalf("evicted sweep still served: %d", w.Code)
	}

	for i := 0; i < 4; i++ {
		w := post(t, h, "/v1/optimize", fmt.Sprintf(`{
			"scenario": {"seed": %d, "nodes": 10, "topology": "cluster",
				"field": {"width": 300, "height": 300}, "duration": "30s",
				"random_flows": {"count": 2, "rate_bps": 2048}},
			"heuristic": "greedy", "iterations": 20}`, i+1))
		if w.Code != http.StatusAccepted {
			t.Fatalf("optimize %d: status %d, body %s", i, w.Code, w.Body)
		}
		var st optStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		waitOptDone(t, h, st.ID)
	}
	w = get(t, h, "/v1/optimize")
	var optList map[string][]optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &optList); err != nil {
		t.Fatal(err)
	}
	if got := len(optList["optimizations"]); got != 2 {
		t.Fatalf("retained %d optimizations, want 2", got)
	}
}

// TestOptimizeRestartParallelDeterministic: the same restart job at
// workers=1 and workers=4 lands on the same design fingerprint through
// the HTTP surface.
func TestOptimizeRestartParallelDeterministic(t *testing.T) {
	h := newServer(context.Background(), "")
	run := func(workers int) string {
		w := post(t, h, "/v1/optimize", fmt.Sprintf(`{
			"scenario": {"seed": 5, "nodes": 12, "topology": "cluster",
				"field": {"width": 400, "height": 400}, "duration": "30s",
				"random_flows": {"count": 3, "rate_bps": 2048}},
			"heuristic": "restart", "iterations": 60, "restarts": 4,
			"opt_seed": 2, "workers": %d}`, workers))
		if w.Code != http.StatusAccepted {
			t.Fatalf("workers=%d: status %d, body %s", workers, w.Code, w.Body)
		}
		var st optStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		final := waitOptDone(t, h, st.ID)
		if final.Status != "done" || final.Result == nil {
			t.Fatalf("workers=%d: final %+v", workers, final)
		}
		return final.Result.BestFingerprint
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("restart job fingerprints diverge across worker counts: %s vs %s", a, b)
	}
}

// TestPanicsFailAlone: a panic inside a job body fails that job (status
// "failed", the panic value as its error) and a panic inside a synchronous
// handler answers 500 with the JSON error envelope; the daemon serves the
// next request either way. The evaluator's test hook stands in for a
// simulator invariant like "phy: unknown node".
func TestPanicsFailAlone(t *testing.T) {
	eval.OnSimulate = func(*eend.Scenario) { panic("phy: unknown node 7") }
	t.Cleanup(func() { eval.OnSimulate = nil })
	h := newServer(t.Context(), t.TempDir())

	// The anneal driver evaluates candidates on the job's own goroutine.
	w := post(t, h, "/v1/optimize", `{
		"scenario": {"seed": 3, "nodes": 10, "topology": "cluster", "field": {"width": 400, "height": 400},
			"duration": "40s", "random_flows": {"count": 2, "rate_bps": 2048}},
		"heuristic": "anneal", "objective": "sim", "iterations": 6}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/optimize: status %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if st := waitOptDone(t, h, created.ID); st.Status != "failed" || !strings.Contains(st.Error, "phy: unknown node 7") {
		t.Fatalf("panicking job = (%s, %q), want failed with the panic value", st.Status, st.Error)
	}

	body, _ := json.Marshal(dist.EvalRequest{Scenarios: []string{testCanonical(t, 1)}})
	w = post(t, h, "/v1/evaluate", string(body))
	var envelope errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("panicking handler answered %d %q, want the JSON error envelope", w.Code, w.Body)
	}
	if w.Code != http.StatusInternalServerError || !strings.Contains(envelope.Error, "phy: unknown node 7") {
		t.Fatalf("panicking handler = (%d, %q), want 500 with the panic value", w.Code, envelope.Error)
	}

	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("GET /healthz after two panics: status %d", w.Code)
	}
}
