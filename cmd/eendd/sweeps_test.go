package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

const sweepBody = `{"grid": "nodes=5,7 seed=1 field=200 dur=25s flows=1 rate=2"}`

// waitDone polls a sweep until it leaves the running state.
func waitDone(t *testing.T, h http.Handler, id string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w := get(t, h, "/v1/sweeps/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var st sweepStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in 30s")
	return sweepStatus{}
}

// TestSweepReplicatedGrid runs a replicates axis through the HTTP surface:
// the finished sweep's results must carry the per-point mean/CI summary.
func TestSweepReplicatedGrid(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())
	w := post(t, h, "/v1/sweeps", `{"grid": "nodes=5 seed=1 field=200 dur=25s flows=1 rate=2 replicates=3"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, h, created.ID)
	if st.Status != "done" || len(st.Results) != 1 {
		t.Fatalf("final status = %+v", st)
	}
	rep := st.Results[0].Results.Replicates
	if rep == nil || rep.N != 3 {
		t.Fatalf("replicated sweep point has no summary: %+v", rep)
	}
}

func TestSweepLifecycle(t *testing.T) {
	h := newServer(context.Background(), t.TempDir())

	w := post(t, h, "/v1/sweeps", sweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (body %s)", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Progress.Total != 2 {
		t.Fatalf("created = %+v", created)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/sweeps/"+created.ID {
		t.Fatalf("Location = %q", loc)
	}

	st := waitDone(t, h, created.ID)
	if st.Status != "done" || st.Progress.Done != 2 || st.Progress.Errors != 0 {
		t.Fatalf("final status = %+v", st)
	}
	if len(st.Results) != 2 || st.Results[0].Results == nil {
		t.Fatalf("results missing from finished sweep: %+v", st.Results)
	}
	if st.Progress.CacheHits != 0 {
		t.Fatalf("fresh sweep reported %d cache hits", st.Progress.CacheHits)
	}

	// The same grid again: served entirely from the cache, and the
	// cache-hit count says so.
	w = post(t, h, "/v1/sweeps", sweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var again sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, h, again.ID)
	if st2.Progress.CacheHits != 2 {
		t.Fatalf("re-run cache hits = %d, want 2", st2.Progress.CacheHits)
	}
	for i := range st2.Results {
		if !st2.Results[i].Cached {
			t.Fatalf("result %d not served from cache", i)
		}
	}

	// Both jobs appear in the list, newest first, without result payloads.
	w = get(t, h, "/v1/sweeps")
	var list map[string][]sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list["sweeps"]) != 2 || len(list["sweeps"][0].Results) != 0 {
		t.Fatalf("list = %+v", list)
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	h := newServer(context.Background(), "")
	for name, body := range map[string]string{
		"not json":      `{`,
		"empty grid":    `{"grid": ""}`,
		"unknown axis":  `{"grid": "antennas=3"}`,
		"empty axis":    `{"grid": "nodes="}`,
		"dup axis":      `{"grid": "nodes=5 nodes=7"}`,
		"bad value":     `{"grid": "nodes=ten"}`,
		"unknown field": `{"grid": "nodes=5", "cache_dir": "/tmp"}`,
		"too large":     `{"grid": "seed=1..5000 nodes=5,10,20"}`,
		// 2^72 points: the product wraps an int to 0 and used to pass the limit.
		"overflowing size": `{"grid": "seed=1..4096 nodes=1..4096 flows=1..4096 rate=1..4096 packet=1..4096 replicates=1..4096"}`,
		"overflowing span": `{"grid": "seed=-2..9223372036854775807"}`,
		// NaN and Inf parse as floats; the facade must refuse them.
		"NaN field": `{"grid": "nodes=5 dur=2s field=NaN"}`,
		"Inf rate":  `{"grid": "nodes=5 dur=2s rate=Inf"}`,
	} {
		if w := post(t, h, "/v1/sweeps", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, w.Code, w.Body)
		}
	}
}

func TestSweepUnknownID(t *testing.T) {
	h := newServer(context.Background(), "")
	if w := get(t, h, "/v1/sweeps/sweep-99"); w.Code != http.StatusNotFound {
		t.Fatalf("GET status = %d, want 404", w.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/sweeps/sweep-99", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("DELETE status = %d, want 404", w.Code)
	}
}

func TestSweepCancel(t *testing.T) {
	h := newServer(context.Background(), "")
	// A long sweep: 8 points of 300 virtual seconds each, one worker.
	w := post(t, h, "/v1/sweeps", `{"grid": "seed=1..8 nodes=40 flows=5 rate=4", "workers": 1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+created.ID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status = %d", rec.Code)
	}
	st := waitDone(t, h, created.ID)
	if st.Status != "cancelled" {
		t.Fatalf("status = %q, want cancelled", st.Status)
	}
}

func TestSweepCancelAfterFullDispatch(t *testing.T) {
	h := newServer(context.Background(), "")
	// 2 points, 2 workers: everything dispatches immediately, so the
	// cancel can only manifest as in-flight runs aborting with errors. The
	// job must still report cancelled, not done.
	w := post(t, h, "/v1/sweeps", `{"grid": "seed=1..2 nodes=60 dur=600s flows=10 rate=4", "workers": 2}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let both points dispatch
	req := httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+created.ID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	st := waitDone(t, h, created.ID)
	if st.Status != "cancelled" {
		t.Fatalf("status = %q (progress %+v), want cancelled", st.Status, st.Progress)
	}
}

func TestSweepListNewestFirstPastTen(t *testing.T) {
	h := newServer(context.Background(), "")
	var last string
	for i := 0; i < 11; i++ {
		w := post(t, h, `/v1/sweeps`, fmt.Sprintf(`{"grid": "seed=%d nodes=5 field=200 dur=25s flows=1"}`, i+1))
		if w.Code != http.StatusAccepted {
			t.Fatalf("sweep %d: status = %d", i, w.Code)
		}
		var st sweepStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		last = st.ID
		waitDone(t, h, st.ID)
	}
	w := get(t, h, "/v1/sweeps")
	var list map[string][]sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	sweeps := list["sweeps"]
	if len(sweeps) != 11 {
		t.Fatalf("list = %d sweeps, want 11", len(sweeps))
	}
	// Numeric ordering, not lexicographic: sweep-11 leads, sweep-1 trails.
	if sweeps[0].ID != last || sweeps[0].ID != "sweep-11" {
		t.Fatalf("list[0] = %q, want sweep-11", sweeps[0].ID)
	}
	if sweeps[10].ID != "sweep-1" {
		t.Fatalf("list[10] = %q, want sweep-1", sweeps[10].ID)
	}
}

func TestSweepDiesWithServerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := newServer(ctx, "")
	w := post(t, h, "/v1/sweeps", `{"grid": "seed=1..8 nodes=40 flows=5 rate=4", "workers": 1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var created sweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	cancel() // server shutdown after the grace period
	st := waitDone(t, h, created.ID)
	if st.Status != "cancelled" {
		t.Fatalf("status = %q, want cancelled after server shutdown", st.Status)
	}
}
