package main

import (
	"context"
	"fmt"
	"time"

	"eend/internal/exec"
	"eend/internal/jobs"
	"eend/internal/obs"
	"eend/opt"
)

// optimizeRequest is the JSON body of POST /v1/optimize. The scenario
// describes the deployment the design problem is derived from: its flows
// become the demands, its (generated) topology the graph. A scenario with
// no topology gets the uniform generator so positions materialize; grid
// placement (which never materializes positions) is rejected — request
// topology "grid" instead. scenario.replicates > 1 averages that many
// simulations per candidate when the objective is "sim".
type optimizeRequest struct {
	Scenario scenarioRequest `json:"scenario"`
	// Heuristic is the design method (default "anneal"): a Section 4
	// heuristic (comm-first, joint, idle-first) or a search algorithm
	// (greedy, anneal, restart).
	Heuristic string `json:"heuristic,omitempty"`
	// Objective scores candidates: "analytic" (closed-form Enetwork,
	// default) or "sim" (full simulator runs, cached content-addressed).
	Objective string `json:"objective,omitempty"`
	// Iterations bounds objective evaluations (0: the algorithm default).
	Iterations int `json:"iterations,omitempty"`
	// Restarts is the restart count for heuristic "restart".
	Restarts int `json:"restarts,omitempty"`
	// Workers bounds concurrent restart evaluations for heuristic
	// "restart" (other algorithms are sequential chains), normalized by
	// the execution runtime exactly like sweep workers. The trajectory is
	// identical at every worker count.
	Workers int `json:"workers,omitempty"`
	// OptSeed drives the search's randomness (default 1); a fixed seed
	// reproduces the exact trajectory.
	OptSeed uint64 `json:"opt_seed,omitempty"`
	// Bound selects the lower-bound oracle certifying an analytic search:
	// "comb" (fast combinatorial relaxation) or "lagrange" (subgradient
	// Lagrangian, the default); "none" disables. The bound is computed up
	// front, so every progress snapshot and SSE frame carries bound and
	// live gap. It certifies Eq. 5 only: a "sim" search reports neither.
	Bound string `json:"bound,omitempty"`
	// Trace includes the full accept/reject trajectory in the result.
	Trace bool `json:"trace,omitempty"`
}

// optProgress is the live view of a running search.
type optProgress struct {
	Iterations int     `json:"iterations"`
	Total      int     `json:"total"` // iteration budget
	Initial    float64 `json:"initial_energy,omitempty"`
	BestEnergy float64 `json:"best_energy,omitempty"` // best-so-far
	Accepted   int     `json:"accepted"`
	Rejected   int     `json:"rejected"`
	// Bound is the certified lower bound on the objective (nil when the
	// request disabled the oracle or the objective is "sim"), BoundTier the
	// oracle that produced it, and Gap the live optimality gap of the
	// best-so-far against it. Gap is nil while no best exists or when the
	// ratio is undefined — never NaN or Inf. GapCertified reports the bound
	// proves the best-so-far optimal.
	Bound        *float64 `json:"bound,omitempty"`
	BoundTier    string   `json:"bound_tier,omitempty"`
	Gap          *float64 `json:"gap,omitempty"`
	GapCertified bool     `json:"gap_certified,omitempty"`
	// Sim carries the simulator objective's counters (nil for analytic).
	// Its fields never use omitempty: "sim_runs": 0 on a warm-cache job is
	// the number that proves no simulator was invoked.
	Sim *opt.SimStats `json:"sim,omitempty"`
}

// optState is the job payload of one design search.
type optState struct {
	heuristic string
	objective string
	workers   int
	progress  optProgress
	result    *opt.Result
	trace     string       // deterministic trace ID (scenario/heuristic/seed)
	sink      *obs.MemSink // span events; nil for journal-replayed jobs
}

// optStatus is the JSON representation of an optimize job.
type optStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"` // running | done | cancelled | failed
	Heuristic string `json:"heuristic"`
	Objective string `json:"objective"`
	// Workers is the normalized worker count restart searches fan out on.
	Workers  int         `json:"workers"`
	Progress optProgress `json:"progress"`
	// TraceID names the job's span tree (GET /v1/optimize/{id}/trace); it
	// is derived from the scenario fingerprint, heuristic, objective and
	// seed, so identical searches share it. Present in every snapshot,
	// including SSE progress frames.
	TraceID string    `json:"trace_id,omitempty"`
	Created time.Time `json:"created"`
	// Error is set when Status is "failed".
	Error string `json:"error,omitempty"`
	// Result is the search outcome (the best-so-far for cancelled jobs),
	// omitted from the list endpoint.
	Result *opt.Result `json:"result,omitempty"`
}

// optSnapshot renders a job, optionally with its result.
func optSnapshot(j *jobs.Job[optState], withResult bool) (any, bool) {
	status, errText, v := j.Snapshot()
	st := optStatus{
		ID: j.ID(), Status: string(status), Heuristic: v.heuristic, Objective: v.objective,
		Workers: v.workers, Progress: v.progress, TraceID: v.trace, Created: j.Created(), Error: errText,
	}
	if withResult {
		st.Result = v.result
	}
	return st, status != jobs.Running
}

// optRoutes is the optimize endpoints' HTTP surface.
var optRoutes = jobKind[optState]{
	prefix: "opt", path: "/v1/optimize", listKey: "optimizations", noun: "optimization", gauge: "optimize",
	snapshot: optSnapshot,
	trace:    func(v optState) (string, *obs.MemSink) { return v.trace, v.sink },
}

// maxOptimizeNodes bounds the deployment of one design search: its problem
// graph is built synchronously, O(n²) in time and, on a dense field, space.
const maxOptimizeNodes = 10000

// startOptimize validates the request synchronously (configuration errors are
// 400s, not failed jobs) and launches the search in the background.
func startOptimize(_ context.Context, m *jobManager[optState], req optimizeRequest) (*jobs.Job[optState], error) {
	if req.Heuristic == "" {
		req.Heuristic = "anneal"
	}
	if !opt.ValidMethod(req.Heuristic) {
		return nil, fmt.Errorf("unknown heuristic %q (want one of %v)", req.Heuristic, opt.Methods())
	}
	// The design problem needs materialized positions, which grid
	// placement never produces (it is drawn inside the engine at run
	// time); reject it up front with an HTTP-sized message instead of
	// letting opt.FromScenario fail with facade advice.
	if req.Scenario.Grid != nil {
		return nil, fmt.Errorf("optimize does not support grid placement; use \"topology\" (e.g. \"grid\") instead")
	}
	if n := req.Scenario.Nodes; n != nil && *n > maxOptimizeNodes {
		return nil, fmt.Errorf("optimize: %d nodes, limit %d", *n, maxOptimizeNodes)
	}
	if req.Scenario.Topology == "" {
		req.Scenario.Topology = "uniform"
	}
	replicates := req.Scenario.Replicates
	req.Scenario.Replicates = 0 // replication belongs to the objective, not the base deployment
	sc, err := scenarioFromRequest(req.Scenario)
	if err != nil {
		return nil, err
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		return nil, err
	}
	// The bound is computed synchronously: a bad name or an unroutable
	// instance is a 400, and the certificate is ready before the first
	// progress frame; Finalize folds it into the result.
	obj, br, err := p.Setup(req.Objective, req.Bound, req.OptSeed,
		opt.SimConfig{Store: m.cache, Remote: m.peers, Replicates: replicates})
	if err != nil {
		return nil, err
	}
	req.Objective = obj.Name()
	sim, _ := obj.(*opt.Simulated)

	total := req.Iterations
	if total <= 0 {
		total = opt.DefaultIterations
	}
	if _, err := opt.ParseAlgorithm(req.Heuristic); err != nil {
		total = 1 // a Section 4 approach is a single evaluation
	}
	workers := exec.Workers(req.Workers)
	sink := obs.NewMemSink()
	traceID := obs.TraceID(fmt.Sprintf("opt:%s/%s/%s/%d",
		sc.Fingerprint(), req.Heuristic, req.Objective, req.OptSeed))
	tracer := obs.NewTracer(traceID, sink)

	return m.store.Start(
		func(v *optState) {
			v.heuristic = req.Heuristic
			v.objective = req.Objective
			v.workers = workers
			v.progress.Total = total
			v.trace = traceID
			v.sink = sink
			if br != nil {
				b := br.Value
				v.progress.Bound = &b
				v.progress.BoundTier = br.Tier
			}
		},
		func(ctx context.Context, j *jobs.Job[optState]) error {
			onStep := func(s opt.Step) {
				j.Update(func(v *optState) {
					v.progress.Iterations = s.Iter
					v.progress.BestEnergy = s.Best
					if s.Accepted {
						v.progress.Accepted++
					} else {
						v.progress.Rejected++
					}
					v.progress.Gap, v.progress.GapCertified = br.GapOf(s.Best)
					if sim != nil {
						st := sim.Stats()
						v.progress.Sim = &st
					}
				})
			}
			res, err := p.SearchMethod(ctx, req.Heuristic, obj, opt.Options{
				Seed:       req.OptSeed,
				Iterations: req.Iterations,
				Restarts:   req.Restarts,
				Workers:    workers,
				Trace:      req.Trace,
				OnStep:     onStep,
				Tracer:     tracer,
			})
			// Finalize lands the result atomically with the status flip,
			// so pollers never see a final result on a running job.
			j.Finalize(func(v *optState) {
				v.result = res
				if res != nil {
					res.ApplyBound(br)
					v.progress.Iterations = res.Iterations
					v.progress.Initial = res.Initial
					v.progress.BestEnergy = res.BestEnergy
					v.progress.Gap, v.progress.GapCertified = res.Gap, res.GapCertified
					if res.Sim != nil {
						v.progress.Sim = res.Sim
					}
				}
			})
			return err
		}), nil
}
