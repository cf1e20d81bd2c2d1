package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// optBody is a small, fast design-search request: analytic objective over
// a 12-node clustered deployment.
const optBody = `{
	"scenario": {
		"seed": 1, "nodes": 12, "topology": "cluster",
		"field": {"width": 400, "height": 400},
		"duration": "40s",
		"random_flows": {"count": 3, "rate_bps": 2048}
	},
	"heuristic": "anneal", "iterations": 100
}`

// waitOptDone polls an optimization until it leaves the running state.
func waitOptDone(t *testing.T, h http.Handler, id string) optStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w := get(t, h, "/v1/optimize/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var st optStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("optimization did not finish in 30s")
	return optStatus{}
}

func TestOptimizeLifecycle(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())

	w := post(t, h, "/v1/optimize", optBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/optimize/opt-1" {
		t.Fatalf("Location = %q", loc)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Heuristic != "anneal" || created.Objective != "analytic" {
		t.Fatalf("created job %+v", created)
	}
	if created.Progress.Total != 100 {
		t.Fatalf("iteration budget %d, want 100", created.Progress.Total)
	}

	st := waitOptDone(t, h, created.ID)
	if st.Status != "done" {
		t.Fatalf("final status %q (%s)", st.Status, st.Error)
	}
	if st.Result == nil || st.Result.BestFingerprint == "" {
		t.Fatalf("finished job has no result: %+v", st)
	}
	if st.Result.BestEnergy > st.Result.Initial {
		t.Fatalf("search worsened the design: %+v", st.Result)
	}
	if st.Progress.Iterations == 0 || st.Progress.BestEnergy != st.Result.BestEnergy {
		t.Fatalf("progress %+v disagrees with result %g", st.Progress, st.Result.BestEnergy)
	}

	// The list endpoint carries the job without its result payload.
	lw := get(t, h, "/v1/optimize")
	var list map[string][]optStatus
	if err := json.Unmarshal(lw.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list["optimizations"]) != 1 || list["optimizations"][0].Result != nil {
		t.Fatalf("list = %+v", list)
	}
}

// TestOptimizeSimObjective runs the simulator-backed objective through the
// HTTP surface with the server's cache, then re-runs it: the second job
// must report zero simulator invocations.
func TestOptimizeSimObjective(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	body := `{
		"scenario": {
			"seed": 3, "nodes": 10, "topology": "cluster",
			"field": {"width": 400, "height": 400},
			"duration": "40s",
			"random_flows": {"count": 2, "rate_bps": 2048}
		},
		"heuristic": "anneal", "objective": "sim", "iterations": 6
	}`
	for i, wantColdRun := range []bool{true, false} {
		w := post(t, h, "/v1/optimize", body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("run %d: status = %d, body %s", i, w.Code, w.Body)
		}
		var created optStatus
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}
		st := waitOptDone(t, h, created.ID)
		if st.Status != "done" {
			t.Fatalf("run %d: status %q (%s)", i, st.Status, st.Error)
		}
		if wantColdRun && (st.Progress.Sim == nil || st.Progress.Sim.SimRuns == 0) {
			t.Fatalf("cold run performed no simulations: %+v", st.Progress)
		}
		if !wantColdRun && (st.Progress.Sim == nil || st.Progress.Sim.SimRuns != 0) {
			t.Fatalf("warm re-run progress %+v, want visible zero sim_runs", st.Progress.Sim)
		}
		if st.Progress.Sim == nil || st.Progress.Sim.Evals == 0 {
			t.Fatalf("run %d: no evaluations recorded: %+v", i, st.Progress)
		}
	}
}

func TestOptimizeCancel(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	// A sim-objective job is slow enough to catch mid-flight.
	body := `{
		"scenario": {
			"seed": 3, "nodes": 10, "topology": "cluster",
			"field": {"width": 400, "height": 400},
			"duration": "40s",
			"random_flows": {"count": 2, "rate_bps": 2048}
		},
		"heuristic": "anneal", "objective": "sim", "iterations": 5000
	}`
	w := post(t, h, "/v1/optimize", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/optimize/"+created.ID, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("cancel status = %d", rw.Code)
	}
	st := waitOptDone(t, h, created.ID)
	if st.Status != "cancelled" && st.Status != "done" {
		t.Fatalf("status after cancel = %q (%s)", st.Status, st.Error)
	}
}

func TestOptimizeValidation(t *testing.T) {
	h := newServer(context.Background(), "")
	for name, body := range map[string]string{
		"bad heuristic":  `{"scenario": {"nodes": 10}, "heuristic": "nope"}`,
		"bad objective":  `{"scenario": {"nodes": 10}, "objective": "nope"}`,
		"no flows":       `{"scenario": {"nodes": 10}}`,
		"bad topology":   `{"scenario": {"topology": "nope"}}`,
		"grid placement": `{"scenario": {"grid": {"rows": 5, "cols": 4}, "random_flows": {"count": 2, "rate_bps": 2048}}}`,
		"unknown field":  `{"bogus": 1}`,
	} {
		w := post(t, h, "/v1/optimize", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", name, w.Code, w.Body)
		}
	}
	if w := get(t, h, "/v1/optimize/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown id: status = %d", w.Code)
	}
}

// TestOptimizeNegativeReplicates: a negative scenario.replicates under the
// sim objective is a 400, not a job that quietly runs one simulation.
func TestOptimizeNegativeReplicates(t *testing.T) {
	h := newServer(context.Background(), "")
	w := post(t, h, "/v1/optimize", `{"scenario": {"nodes": 8, "replicates": -2, "duration": "5s",
		"random_flows": {"count": 1, "rate_bps": 2048}}, "objective": "sim", "bound": "none", "iterations": 2}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "replicate count -2 is not positive") {
		t.Fatalf("replicates -2: status %d, body %s; want 400 naming the count", w.Code, w.Body)
	}
}

// TestScenarioTopologyField: the scenario endpoint accepts the new
// topology selector and the generated placement changes the outcome
// deterministically.
func TestScenarioTopologyField(t *testing.T) {
	h := newServer(context.Background(), "")
	w := post(t, h, "/v1/scenarios", `{
		"seed": 1, "nodes": 10, "topology": "corridor",
		"field": {"width": 400, "height": 400}, "duration": "30s",
		"random_flows": {"count": 2, "rate_bps": 2048}
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res struct {
		Sent uint64 `json:"sent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("topology scenario sent no traffic")
	}
	if w := post(t, h, "/v1/scenarios", `{"topology": "nope"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad topology: status = %d", w.Code)
	}
}

// TestOptimizeBound: the default request computes a Lagrangian lower bound
// up front — the creation snapshot already carries it — and the finished
// job reports bound and optimality gap consistently in both the result and
// the final progress.
func TestOptimizeBound(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	w := post(t, h, "/v1/optimize", optBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Progress.Bound == nil || created.Progress.BoundTier != "lagrange" {
		t.Fatalf("creation snapshot lacks the bound: %+v", created.Progress)
	}

	st := waitOptDone(t, h, created.ID)
	if st.Status != "done" {
		t.Fatalf("final status %q (%s)", st.Status, st.Error)
	}
	res := st.Result
	if res == nil || res.Bound == nil || res.BoundTier != "lagrange" {
		t.Fatalf("result lacks the bound: %+v", res)
	}
	if *res.Bound <= 0 || *res.Bound > res.BestEnergy*(1+1e-9) {
		t.Fatalf("bound %g not in (0, best=%g]", *res.Bound, res.BestEnergy)
	}
	if res.Gap == nil || *res.Gap < 0 {
		t.Fatalf("result gap %v", res.Gap)
	}
	if st.Progress.Gap == nil || *st.Progress.Gap != *res.Gap {
		t.Fatalf("final progress gap %v disagrees with result gap %v", st.Progress.Gap, res.Gap)
	}
	if *st.Progress.Bound != *res.Bound {
		t.Fatalf("progress bound %g disagrees with result bound %g", *st.Progress.Bound, *res.Bound)
	}
	if st.Progress.GapCertified != res.GapCertified {
		t.Fatalf("progress certification %v disagrees with result %v", st.Progress.GapCertified, res.GapCertified)
	}
}

// TestOptimizeBoundDisabled: "bound": "none" omits every quality field.
func TestOptimizeBoundDisabled(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	body := `{
		"scenario": {
			"seed": 1, "nodes": 12, "topology": "cluster",
			"field": {"width": 400, "height": 400},
			"duration": "40s",
			"random_flows": {"count": 3, "rate_bps": 2048}
		},
		"heuristic": "greedy", "iterations": 20, "bound": "none"
	}`
	w := post(t, h, "/v1/optimize", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	st := waitOptDone(t, h, created.ID)
	if st.Progress.Bound != nil || st.Progress.Gap != nil || st.Progress.BoundTier != "" {
		t.Fatalf("bound \"none\" still reported quality progress: %+v", st.Progress)
	}
	if st.Result == nil || st.Result.Bound != nil || st.Result.Gap != nil {
		t.Fatalf("bound \"none\" still reported a bounded result: %+v", st.Result)
	}
}

// TestOptimizeBoundValidation: an unknown tier is a 400, not a failed job.
func TestOptimizeBoundValidation(t *testing.T) {
	h := newServer(context.Background(), "")
	body := `{
		"scenario": {
			"seed": 1, "nodes": 12, "topology": "cluster",
			"field": {"width": 400, "height": 400},
			"random_flows": {"count": 3, "rate_bps": 2048}
		},
		"bound": "nope"
	}`
	if w := post(t, h, "/v1/optimize", body); w.Code != http.StatusBadRequest {
		t.Fatalf("bad bound tier: status = %d, body %s", w.Code, w.Body)
	}
}

// TestOptimizeSimHasNoBound: the Lagrangian bound certifies Eq. 5, not
// simulated joules, so a sim-objective job carries no bound or gap in its
// creation snapshot, its SSE progress frames or its result, and leaves the
// eend_opt_gap gauge where it was.
func TestOptimizeSimHasNoBound(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	gauge := func() string {
		for _, line := range strings.Split(get(t, h, "/metrics").Body.String(), "\n") {
			if strings.HasPrefix(line, "eend_opt_gap ") {
				return line
			}
		}
		t.Fatal("eend_opt_gap missing from /metrics")
		return ""
	}
	before := gauge()
	w := post(t, h, "/v1/optimize", `{
		"scenario": {
			"seed": 3, "nodes": 10, "topology": "cluster",
			"field": {"width": 400, "height": 400},
			"duration": "40s",
			"random_flows": {"count": 2, "rate_bps": 2048}
		},
		"heuristic": "anneal", "objective": "sim", "iterations": 6, "bound": "lagrange"
	}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created optStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/optimize/"+created.ID, nil)
	req.Header.Set("Accept", "text/event-stream")
	stream := httptest.NewRecorder()
	h.ServeHTTP(stream, req)
	st := waitOptDone(t, h, created.ID)
	if st.Status != "done" {
		t.Fatalf("final status %q (%s)", st.Status, st.Error)
	}
	final, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"creation snapshot": w.Body.String(), "SSE stream": stream.Body.String(), "final status": string(final),
	} {
		for _, field := range []string{`"bound"`, `"bound_tier"`, `"gap"`, `"gap_certified"`} {
			if strings.Contains(body, field) {
				t.Errorf("%s carries %s: %s", name, field, body)
			}
		}
	}
	if after := gauge(); after != before {
		t.Errorf("sim job moved the gap gauge: %q -> %q", before, after)
	}
}
