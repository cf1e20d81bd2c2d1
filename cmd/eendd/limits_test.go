package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eend/internal/dist"
)

// limitCase is a request body and the limit its 400 must name.
type limitCase struct {
	body  string
	limit int
}

// rejectsWithLimit posts each body and wants a 400 whose message names the
// limit it ran into.
func rejectsWithLimit(t *testing.T, path string, cases map[string]limitCase) {
	t.Helper()
	h := newServer(context.Background(), "")
	for name, c := range cases {
		start := time.Now()
		w := post(t, h, path, c.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), fmt.Sprint(c.limit)) {
			t.Errorf("%s: status = %d, want 400 naming the limit %d (body %s)", name, w.Code, c.limit, w.Body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: rejected after %v; the size was acted on before it was checked", name, d)
		}
	}
}

// The three routes that build scenarios from JSON sizes reject the ones
// that would allocate by them (ROADMAP hardening, "bytes from outside").
func TestScenarioSizeLimits(t *testing.T) {
	rejectsWithLimit(t, "/v1/scenarios", map[string]limitCase{
		"nodes":           {`{"nodes": 2000000000, "topology": "uniform"}`, dist.MaxNodes},
		"nodes just over": {`{"nodes": 100001}`, dist.MaxNodes},
		"grid":            {`{"grid": {"rows": 1000, "cols": 1000}}`, dist.MaxNodes},
		"grid overflow":   {`{"grid": {"rows": 3, "cols": 6148914691236517206}}`, dist.MaxNodes},
		"random flows":    {`{"nodes": 10, "random_flows": {"count": 2000000000, "rate_bps": 2048}}`, dist.MaxFlows},
	})
}

func TestSweepSizeLimits(t *testing.T) {
	rejectsWithLimit(t, "/v1/sweeps", map[string]limitCase{
		"nodes axis":       {`{"grid": "nodes=10,2000000000 topology=uniform"}`, dist.MaxNodes},
		"flows axis":       {`{"grid": "nodes=10 flows=2,2000000000"}`, dist.MaxFlows},
		"heuristic, nodes": {`{"grid": "nodes=100001 heuristic=idle-first"}`, dist.MaxNodes},
	})
}

func TestOptimizeSizeLimits(t *testing.T) {
	rejectsWithLimit(t, "/v1/optimize", map[string]limitCase{
		"nodes":       {`{"scenario": {"nodes": 10001, "random_flows": {"count": 2, "rate_bps": 2048}}}`, maxOptimizeNodes},
		"nodes, huge": {`{"scenario": {"nodes": 2000000000, "random_flows": {"count": 2, "rate_bps": 2048}}}`, maxOptimizeNodes},
		"flows":       {`{"scenario": {"nodes": 10, "random_flows": {"count": 10001, "rate_bps": 2048}}}`, dist.MaxFlows},
	})
}

// TestEvaluateSizeLimits: an oversized canonical scenario is its own slot's
// error; the rest of the batch runs.
func TestEvaluateSizeLimits(t *testing.T) {
	_, h := newWorker(t, serverConfig{})
	ok := testCanonical(t, 1)
	batch := []string{
		strings.Replace(ok, "placement=uniform:8", "placement=uniform:2000000000", 1),
		strings.Replace(ok, "placement=uniform:8", "placement=grid:1000x1000", 1),
		strings.Replace(ok, "placement=uniform:8", "placement=grid:3x6148914691236517206", 1),
		ok,
	}
	if batch[0] == ok {
		t.Fatalf("canonical form has no uniform placement line to enlarge:\n%s", ok)
	}
	body, _ := json.Marshal(dist.EvalRequest{Scenarios: batch})
	w := post(t, h, "/v1/evaluate", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-slot errors (body %s)", w.Code, w.Body)
	}
	var resp dist.EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results[:3] {
		if r.Error == "" || r.Results != nil {
			t.Errorf("slot %d: oversized scenario was run (error %q)", i, r.Error)
		}
	}
	if r := resp.Results[3]; r.Error != "" || r.Results == nil {
		t.Errorf("the in-bounds scenario did not run beside the oversized ones: %q", r.Error)
	}
}

// TestSweepPrepareUnderRequestContext: POST /v1/sweeps materializes a
// heuristic= grid — design searches and Lagrangian bounds — under the
// request's context, so a client that has already gone gets an error and
// no search runs on its behalf.
func TestSweepPrepareUnderRequestContext(t *testing.T) {
	h := newServer(context.Background(), "")
	before := metricValue(t, h, "eend_opt_searches_total")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(
		`{"grid": "nodes=20 seed=1..3 topology=cluster field=600 flows=4 dur=40s heuristic=idle-first"}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Fatalf("status = %d, want 400 with the context's error (body %s)", w.Code, w.Body)
	}
	if after := metricValue(t, h, "eend_opt_searches_total"); after != before {
		t.Fatalf("%d design searches ran for a request that was already cancelled", after-before)
	}
	if list := get(t, h, "/v1/sweeps"); !strings.Contains(list.Body.String(), `"sweeps": []`) {
		t.Fatalf("a job was started: %s", list.Body)
	}
}

// FuzzScenarioRequest: arbitrary bytes through the strict JSON decode and
// scenarioFromRequest — the body of /v1/scenarios and the scenario of
// /v1/optimize — never panic and return promptly; an accepted scenario is
// within the size caps and builds to the same fingerprint twice.
func FuzzScenarioRequest(f *testing.F) {
	// The committed corpus (testdata/fuzz) holds docs/http-api.md's
	// scenario examples and the sizes the caps are for.
	f.Add([]byte(`{"nodes":12,"field":{"width":300,"height":300},"duration":"40s","random_flows":{"count":3,"rate_bps":2048}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/scenarios", bytes.NewReader(body))
		var req scenarioRequest
		if !decodeJSONBody(httptest.NewRecorder(), r, &req, maxScenarioBody) {
			return
		}
		start := time.Now()
		sc, err := scenarioFromRequest(req)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("scenarioFromRequest took %v", d)
		}
		if err != nil {
			return
		}
		if err := dist.CheckSize(sc.NodeCount(), len(sc.Flows())); err != nil {
			t.Fatalf("accepted a scenario past the caps: %v", err)
		}
		again, err := scenarioFromRequest(req)
		if err != nil || again.Fingerprint() != sc.Fingerprint() {
			t.Fatalf("second build: %v, fingerprint %s then %s", err, sc.Fingerprint(), again.Fingerprint())
		}
	})
}
