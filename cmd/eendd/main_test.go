package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eend"
)

// newServer is newServerWith for tests that configure at most a cache
// directory.
func newServer(base context.Context, cacheDir string) http.Handler {
	h, err := newServerWith(base, serverConfig{cacheDir: cacheDir})
	if err != nil {
		panic(err)
	}
	return h
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	w := get(t, newServer(context.Background(), ""), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

func TestListExperiments(t *testing.T) {
	w := get(t, newServer(context.Background(), ""), "/v1/experiments")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var body map[string][]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body["experiments"]) != 12 || len(body["ablations"]) != 4 {
		t.Fatalf("ids = %v", body)
	}
}

func TestRunScenario(t *testing.T) {
	w := post(t, newServer(context.Background(), ""), "/v1/scenarios", `{
		"seed": 7,
		"field": {"width": 300, "height": 300},
		"nodes": 10,
		"stack": {"routing": "dsr", "pm": "active"},
		"duration": "30s",
		"random_flows": {"count": 2, "rate_bps": 2048}
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res eend.Results
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("response is not results JSON: %v", err)
	}
	if res.Stack != "DSR-Active" {
		t.Fatalf("stack = %q, want DSR-Active", res.Stack)
	}
	if res.Sent == 0 || res.Duration != 30*time.Second {
		t.Fatalf("results look wrong: sent=%d duration=%v", res.Sent, res.Duration)
	}
	// The JSON body must round-trip through the exported type.
	again, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	var res2 eend.Results
	if err := json.Unmarshal(again, &res2); err != nil {
		t.Fatal(err)
	}
	twice, err := json.Marshal(&res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(twice) != string(again) {
		t.Fatal("results did not round-trip byte-identically")
	}
}

func TestRunScenarioReplicated(t *testing.T) {
	w := post(t, newServer(context.Background(), ""), "/v1/scenarios", `{
		"seed": 7,
		"field": {"width": 300, "height": 300},
		"nodes": 10,
		"stack": {"routing": "dsr", "pm": "active"},
		"duration": "30s",
		"random_flows": {"count": 2, "rate_bps": 2048},
		"replicates": 3
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res eend.Results
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("response is not results JSON: %v", err)
	}
	rep := res.Replicates
	if rep == nil || rep.N != 3 || len(rep.Seeds) != 3 {
		t.Fatalf("replicate summary missing or wrong: %+v", rep)
	}
	if rep.Seeds[0] != 7 {
		t.Fatalf("first replicate seed = %d, want the base seed 7", rep.Seeds[0])
	}
	if rep.DeliveryRatio.Mean <= 0 {
		t.Fatalf("mean delivery ratio %g", rep.DeliveryRatio.Mean)
	}

	// An invalid count is a 400, not a failed run.
	w = post(t, newServer(context.Background(), ""), "/v1/scenarios", `{"replicates": -1}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad replicates status = %d, want 400", w.Code)
	}
}

func TestRunScenarioDefaultsApply(t *testing.T) {
	// An empty body object runs the default scenario, but at 300 s with 50
	// nodes that is slow for a unit test; pin it down while leaving the
	// stack defaulted.
	w := post(t, newServer(context.Background(), ""), "/v1/scenarios", `{
		"nodes": 8, "field": {"width": 250, "height": 250},
		"duration": "20s", "random_flows": {"count": 1, "rate_bps": 1024}
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res eend.Results
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Stack != "TITAN-ODPM-PC" {
		t.Fatalf("default stack = %q, want TITAN-ODPM-PC", res.Stack)
	}
}

func TestRunScenarioPartialODPMTimeout(t *testing.T) {
	// Each ODPM timeout is individually optional; the omitted one keeps
	// the paper default.
	w := post(t, newServer(context.Background(), ""), "/v1/scenarios", `{
		"nodes": 8, "field": {"width": 250, "height": 250},
		"stack": {"routing": "dsr", "pm": "odpm", "odpm_data_timeout": "2s"},
		"duration": "20s", "random_flows": {"count": 1, "rate_bps": 1024}
	}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
}

func TestRunScenarioRejectsBadBodies(t *testing.T) {
	for name, body := range map[string]string{
		"not json":           `{`,
		"unknown field":      `{"nodez": 10}`,
		"unknown routing":    `{"stack": {"routing": "ospf"}}`,
		"unknown card":       `{"card": "walkietalkie"}`,
		"bad duration":       `{"duration": "yesterday"}`,
		"nodes and grid":     `{"nodes": 9, "grid": {"rows": 3, "cols": 3}}`,
		"bad flow":           `{"nodes": 5, "flows": [{"id": 1, "src": 0, "dst": 99, "rate_bps": 1024, "packet_bytes": 128}]}`,
		"negative battery":   `{"battery_j": -100}`,
		"negative bandwidth": `{"bandwidth_bps": -1}`,
	} {
		w := post(t, newServer(context.Background(), ""), "/v1/scenarios", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, w.Code, w.Body)
		}
	}
}

func TestRunScenarioRejectsWrongContentType(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader("{}"))
	req.Header.Set("Content-Type", "text/plain")
	w := httptest.NewRecorder()
	newServer(context.Background(), "").ServeHTTP(w, req)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", w.Code)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	w := get(t, newServer(context.Background(), ""), "/v1/experiments/fig7?scale=quick")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var fig eend.Figure
	if err := json.Unmarshal(w.Body.Bytes(), &fig); err != nil {
		t.Fatalf("response is not figure JSON: %v", err)
	}
	if fig.ID != "fig7" || len(fig.Series) != 6 {
		t.Fatalf("fig = %q with %d series, want fig7 with 6", fig.ID, len(fig.Series))
	}
}

func TestExperimentEndpointUnknownID(t *testing.T) {
	if w := get(t, newServer(context.Background(), ""), "/v1/experiments/fig99"); w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
}

func TestExperimentEndpointBadScale(t *testing.T) {
	if w := get(t, newServer(context.Background(), ""), "/v1/experiments/fig7?scale=enormous"); w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
}

func TestScenarioCancelledByClient(t *testing.T) {
	// A heavyweight run under an already-cancelled request context must
	// abort promptly instead of simulating 900 virtual seconds.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(`{
		"nodes": 100, "duration": "900s",
		"random_flows": {"count": 20, "rate_bps": 6144}
	}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	start := time.Now()
	newServer(context.Background(), "").ServeHTTP(w, req)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v, want prompt abort", elapsed)
	}
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for client-cancelled run", w.Code)
	}
}
