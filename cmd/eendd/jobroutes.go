package main

import (
	"context"
	"fmt"
	"net/http"

	"eend/internal/cache"
	"eend/internal/jobs"
	"eend/internal/obs"
)

// jobKind is what distinguishes one async job family from another;
// registerJobRoutes writes the five routes once from it.
type jobKind[V any] struct {
	prefix  string // starts the family's job IDs, e.g. "sweep"
	path    string // route prefix, e.g. "/v1/sweeps"
	listKey string // key of the list response, e.g. "sweeps"
	noun    string // what a 404 calls a job, e.g. "sweep"
	gauge   string // the family's eend_jobs_inflight kind label
	// snapshot renders a job's JSON status (full: with its results) and
	// reports whether the job has settled — read together, so the frame
	// that says "done" is the one carrying the final results.
	snapshot func(j *jobs.Job[V], full bool) (status any, settled bool)
	// trace returns the job's trace ID and span sink (nil sink: none kept).
	trace func(v V) (string, *obs.MemSink)
}

// jobManager is what a job family's start function works with: the
// generic job store (all lifecycle — retention, eviction, status
// transitions, cancellation — lives in internal/jobs) and the result
// cache, fleet peers and metrics its jobs evaluate through.
type jobManager[V any] struct {
	kind  jobKind[V]
	store *jobs.Store[V]
	cache cache.Store
	peers []string
	met   *metrics
}

// newJobManager builds a job family's manager. Its store is journaled
// under cfg.stateDir when the daemon has one (jobs survive restarts), in
// memory otherwise.
func newJobManager[V any](base context.Context, cfg serverConfig, k jobKind[V], store cache.Store, met *metrics) (*jobManager[V], error) {
	m := &jobManager[V]{kind: k, cache: store, peers: cfg.peers, met: met}
	o := jobs.Options{Prefix: k.prefix, Retain: cfg.retainJobs}
	if cfg.stateDir == "" {
		m.store = jobs.NewStore[V](base, o)
		return m, nil
	}
	var err error
	m.store, err = jobs.NewJournaled[V](base, cfg.stateDir, o)
	return m, err
}

// inflight counts a store's running jobs (the /metrics gauge).
func inflight[V any](store *jobs.Store[V]) func() float64 {
	return func() float64 {
		n := 0.0
		for _, j := range store.Jobs() {
			if j.Status() == jobs.Running {
				n++
			}
		}
		return n
	}
}

// registerJobRoutes installs a job family's endpoints on mux — POST to
// start (start validates synchronously, under the request's context, so
// configuration errors are 400s, not failed jobs), list, get (JSON or
// SSE), trace and DELETE to cancel — and its in-flight gauge.
func registerJobRoutes[Req, V any](mux *http.ServeMux, m *jobManager[V], start func(context.Context, *jobManager[V], Req) (*jobs.Job[V], error)) {
	k, store := m.kind, m.store
	m.met.reg.GaugeFunc("eend_jobs_inflight", "Async jobs currently running, by kind.",
		inflight(store), obs.L("kind", k.gauge))
	// lookup resolves {id}, answering 404 itself when it names no job.
	lookup := func(w http.ResponseWriter, r *http.Request) (*jobs.Job[V], bool) {
		job, ok := store.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", k.noun, r.PathValue("id")))
		}
		return job, ok
	}
	brief := func(j *jobs.Job[V]) any {
		st, _ := k.snapshot(j, false)
		return st
	}

	mux.HandleFunc("POST "+k.path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeJSONBody(w, r, &req, maxScenarioBody) {
			return
		}
		job, err := start(r.Context(), m, req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Location", k.path+"/"+job.ID())
		writeJSON(w, http.StatusAccepted, brief(job))
	})

	mux.HandleFunc("GET "+k.path, func(w http.ResponseWriter, r *http.Request) {
		all := store.Jobs()
		out := make([]any, len(all))
		for i, j := range all {
			out[i] = brief(j)
		}
		writeJSON(w, http.StatusOK, map[string][]any{k.listKey: out})
	})

	mux.HandleFunc("GET "+k.path+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, r)
		if !ok {
			return
		}
		if wantsSSE(r) {
			serveSSE(w, r, func() (any, bool) { return k.snapshot(job, true) })
			return
		}
		st, _ := k.snapshot(job, true)
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET "+k.path+"/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, r)
		if !ok {
			return
		}
		status, _, v := job.Snapshot()
		traceID, sink := k.trace(v)
		serveTrace(w, job.ID(), status, traceID, sink)
	})

	mux.HandleFunc("DELETE "+k.path+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, r)
		if !ok {
			return
		}
		job.Cancel()
		writeJSON(w, http.StatusOK, brief(job))
	})
}
