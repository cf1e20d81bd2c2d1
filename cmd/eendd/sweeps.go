package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"eend/internal/dist"
	"eend/internal/exec"
	"eend/internal/jobs"
	"eend/internal/obs"
	"eend/sweep"
)

// maxSweepPoints bounds one sweep request; a grid this large belongs in
// batched requests, not one HTTP call.
const maxSweepPoints = 10000

// sweepRequest is the JSON body of POST /v1/sweeps.
type sweepRequest struct {
	// Grid is the text grid spec, e.g.
	// "nodes=10,20 seed=1..5 stack=titan-pc/odpm topology=uniform,cluster".
	Grid string `json:"grid"`
	// Workers bounds concurrent simulations, normalized by the execution
	// runtime (<= 0: GOMAXPROCS; requests beyond the hard cap are
	// clamped). The response reports the normalized value.
	Workers int `json:"workers,omitempty"`
}

// sweepState is the job payload of one sweep: what the generic job store
// tracks on behalf of this endpoint.
type sweepState struct {
	grid     []sweep.Axis
	workers  int
	progress sweep.Progress
	results  []sweep.Result
	trace    string       // deterministic trace ID (from the grid spec)
	sink     *obs.MemSink // span events; nil for journal-replayed jobs
}

// sweepStatus is the JSON representation of a sweep job.
type sweepStatus struct {
	ID     string       `json:"id"`
	Status string       `json:"status"` // running | done | cancelled | failed
	Grid   []sweep.Axis `json:"grid"`
	// Workers is the normalized worker count the sweep runs with.
	Workers  int            `json:"workers"`
	Progress sweep.Progress `json:"progress"`
	// TraceID names the job's span tree (GET /v1/sweeps/{id}/trace); it is
	// derived from the grid spec, so identical sweeps share it. Present in
	// every snapshot, including SSE progress frames.
	TraceID string    `json:"trace_id,omitempty"`
	Created time.Time `json:"created"`
	// Error is set when Status is "failed".
	Error string `json:"error,omitempty"`
	// Results holds the points completed so far (grid order once done,
	// completion order while running). Omitted from the list endpoint.
	Results []sweep.Result `json:"results,omitempty"`
}

// sweepSnapshot renders a job, optionally with its results.
func sweepSnapshot(j *jobs.Job[sweepState], withResults bool) (any, bool) {
	status, errText, v := j.Snapshot()
	st := sweepStatus{
		ID: j.ID(), Status: string(status), Grid: v.grid, Workers: v.workers,
		Progress: v.progress, TraceID: v.trace, Created: j.Created(), Error: errText,
	}
	if withResults {
		st.Results = v.results
	}
	return st, status != jobs.Running
}

// sweepRoutes is the sweep endpoints' HTTP surface.
var sweepRoutes = jobKind[sweepState]{
	prefix: "sweep", path: "/v1/sweeps", listKey: "sweeps", noun: "sweep", gauge: "sweep",
	snapshot: sweepSnapshot,
	trace:    func(v sweepState) (string, *obs.MemSink) { return v.trace, v.sink },
}

// startSweep validates the request synchronously (so configuration errors are
// 400s, not failed jobs) and launches the sweep's cache scan and
// simulations in the background. ctx is the request's and bounds the
// validation only — a heuristic= grid runs its design searches there.
func startSweep(ctx context.Context, m *jobManager[sweepState], req sweepRequest) (*jobs.Job[sweepState], error) {
	g, err := sweep.ParseGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	if g.Size() > maxSweepPoints {
		return nil, fmt.Errorf("grid expands to %d points, limit %d", g.Size(), maxSweepPoints)
	}
	// The size axes, before any point is built (a value that is not a
	// number is PrepareContext's error to report).
	limits := map[string]int{"nodes": dist.MaxNodes, "flows": dist.MaxFlows}
	for _, ax := range g.Axes() {
		limit, sized := limits[ax.Name]
		for _, v := range ax.Values {
			if n, err := strconv.Atoi(v); sized && err == nil && n > limit {
				return nil, fmt.Errorf("axis %s=%d, limit %d", ax.Name, n, limit)
			}
		}
	}
	workers := exec.Workers(req.Workers)
	sink := obs.NewMemSink()
	traceID := obs.TraceID("sweep:" + req.Grid)
	r := sweep.Runner{
		Workers: workers,
		Cache:   m.cache,
		Remote:  m.peers,
		OnRetry: func(string, error) { m.met.shardRetries.Inc() },
		Trace:   obs.NewTracer(traceID, sink),
	}
	prep, err := r.PrepareContext(ctx, g)
	if err != nil {
		return nil, err
	}

	return m.store.Start(
		func(v *sweepState) {
			v.grid = g.Axes()
			v.workers = workers
			v.progress.Total = prep.Total()
			v.trace = traceID
			v.sink = sink
		},
		func(ctx context.Context, j *jobs.Job[sweepState]) error {
			ch, err := prep.Stream(ctx)
			if err != nil {
				return err
			}
			done, errors := 0, 0
			for sr := range ch {
				done++
				if sr.Err != nil {
					errors++
				}
				j.Update(func(v *sweepState) {
					v.results = append(v.results, sr)
					v.progress.Done++
					if sr.Cached {
						v.progress.CacheHits++
					}
					if sr.Err != nil {
						v.progress.Errors++
					}
				})
			}
			// Finalize sorts atomically with the status flip — into a fresh
			// slice, since snapshots taken while running may still alias the
			// old backing array.
			j.Finalize(func(v *sweepState) {
				sorted := append([]sweep.Result(nil), v.results...)
				sort.Slice(sorted, func(i, k int) bool {
					return sorted[i].Point.Index < sorted[k].Point.Index
				})
				v.results = sorted
			})
			// A cancelled context marks the job cancelled even when every
			// point had already been dispatched (and so arrived, as errors):
			// the client asked for the sweep to stop, and "done" would say
			// it ran to completion.
			if ctx.Err() != nil && done-errors < prep.Total() {
				return ctx.Err()
			}
			return nil
		}), nil
}
