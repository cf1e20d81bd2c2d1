package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"eend"
	"eend/internal/dist"
	"eend/internal/network"
)

// TestWriteJSONEncodesBeforeStatus: a value that does not encode answers
// 500 with the JSON error envelope, not 200 with an empty body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, math.NaN())
	var body errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusInternalServerError || body.Error == "" {
		t.Fatalf("status %d, body %q (%v); want 500 and a JSON error", w.Code, w.Body, err)
	}
	w = httptest.NewRecorder()
	writeEncoded(w, func(jw *network.Writer) { jw.Results(&eend.Results{DeliveryRatio: math.Inf(1)}) })
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusInternalServerError || body.Error == "" {
		t.Fatalf("codec: status %d, body %q (%v); want 500 and a JSON error", w.Code, w.Body, err)
	}
}

// TestCodecBodiesMatchWriteJSON: the /v1/scenarios and /v1/evaluate bodies
// the codec writes are byte for byte what writeJSON's encoding/json writes
// for the same value.
func TestCodecBodiesMatchWriteJSON(t *testing.T) {
	h := newServer(t.Context(), t.TempDir())
	sameAsWriteJSON := func(got *httptest.ResponseRecorder, v any) {
		t.Helper()
		if got.Code != http.StatusOK || got.Body.Len() < 1000 {
			t.Fatalf("status %d, body %s", got.Code, got.Body)
		}
		if err := json.Unmarshal(got.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, v)
		if got.Body.String() != want.Body.String() {
			t.Fatalf("body:\n%s\nwant:\n%s", got.Body, want.Body)
		}
	}
	sameAsWriteJSON(post(t, h, "/v1/scenarios", `{"seed": 3, "field": {"width": 300, "height": 300}, "nodes": 12,
		"duration": "40s", "random_flows": {"count": 3, "rate_bps": 2048}, "battery_j": 5, "replicates": 2}`), new(eend.Results))
	body, _ := json.Marshal(dist.EvalRequest{Scenarios: []string{testCanonical(t, 1), `"<garbage>"`, testCanonical(t, 1)}})
	for range 2 { // cold, then cached
		sameAsWriteJSON(post(t, h, "/v1/evaluate", string(body)), new(dist.EvalResponse))
	}
}
