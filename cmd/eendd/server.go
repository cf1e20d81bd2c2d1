package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"eend"
	"eend/internal/buildinfo"
	"eend/internal/dist"
	"eend/internal/network"
)

// scenarioRequest is the JSON body of POST /v1/scenarios. Every field is
// optional; omitted ones take the facade defaults (50 nodes, 500x500 m,
// Cabletron, TITAN-PC/ODPM, 300 s).
type scenarioRequest struct {
	Seed  *uint64 `json:"seed,omitempty"`
	Field *struct {
		Width  float64 `json:"width"`
		Height float64 `json:"height"`
	} `json:"field,omitempty"`
	Nodes *int `json:"nodes,omitempty"`
	Grid  *struct {
		Rows int `json:"rows"`
		Cols int `json:"cols"`
	} `json:"grid,omitempty"`
	// Topology selects a placement generator (see eend.TopologyNames);
	// generated positions are materialized at build time, so they take
	// part in the scenario's fingerprint (and optimize jobs can derive
	// design problems from them).
	Topology    string      `json:"topology,omitempty"`
	Card        string      `json:"card,omitempty"`
	Stack       *stackSpec  `json:"stack,omitempty"`
	Duration    string      `json:"duration,omitempty"` // Go syntax, e.g. "300s"
	Flows       []eend.Flow `json:"flows,omitempty"`
	RandomFlows *struct {
		Count       int     `json:"count"`
		Limit       int     `json:"limit,omitempty"` // endpoints among first Limit nodes; 0 = all
		RateBps     float64 `json:"rate_bps"`
		PacketBytes int     `json:"packet_bytes,omitempty"` // default 128
	} `json:"random_flows,omitempty"`
	BatteryJ     float64 `json:"battery_j,omitempty"`
	BandwidthBps float64 `json:"bandwidth_bps,omitempty"`
	// Replicates > 1 averages that many seed-derived runs; the response's
	// "replicates" object then carries mean/CI95 per headline metric.
	Replicates int `json:"replicates,omitempty"`
}

// stackSpec selects the protocol stack by short names (see eend.RoutingNames,
// eend.PMNames).
type stackSpec struct {
	Routing      string `json:"routing"`
	PM           string `json:"pm,omitempty"` // default "odpm"
	PowerControl bool   `json:"power_control,omitempty"`
	Span         bool   `json:"span,omitempty"`
	PerfectSleep bool   `json:"perfect_sleep,omitempty"`
	Label        string `json:"label,omitempty"`
	ODPMData     string `json:"odpm_data_timeout,omitempty"`  // Go duration
	ODPMRoute    string `json:"odpm_route_timeout,omitempty"` // Go duration
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// scenarioFromRequest translates the wire request into facade options.
func scenarioFromRequest(req scenarioRequest) (*eend.Scenario, error) {
	var opts []eend.Option
	if req.Seed != nil {
		opts = append(opts, eend.WithSeed(*req.Seed))
	}
	if req.Field != nil {
		opts = append(opts, eend.WithField(req.Field.Width, req.Field.Height))
	}
	if req.Nodes != nil && req.Grid != nil {
		return nil, errors.New("nodes and grid are mutually exclusive")
	}
	nodes, flows := 0, len(req.Flows)
	if req.Nodes != nil {
		nodes = *req.Nodes
		opts = append(opts, eend.WithNodes(nodes))
	}
	if g := req.Grid; g != nil {
		if g.Rows > 0 && g.Cols > dist.MaxNodes/g.Rows { // the product may not fit an int
			return nil, fmt.Errorf("grid %dx%d, limit %d nodes", g.Rows, g.Cols, dist.MaxNodes)
		}
		opts = append(opts, eend.WithGrid(g.Rows, g.Cols))
	}
	if req.Topology != "" {
		topo, err := eend.ParseTopology(req.Topology)
		if err != nil {
			return nil, err
		}
		opts = append(opts, eend.WithTopology(topo))
	}
	if req.Card != "" {
		card, err := eend.ParseCard(req.Card)
		if err != nil {
			return nil, err
		}
		opts = append(opts, eend.WithCard(card))
	}
	if req.Stack != nil {
		stack, err := stackOptions(*req.Stack)
		if err != nil {
			return nil, err
		}
		opts = append(opts, eend.WithStack(stack...))
	}
	if req.Duration != "" {
		d, err := time.ParseDuration(req.Duration)
		if err != nil {
			return nil, fmt.Errorf("bad duration: %w", err)
		}
		opts = append(opts, eend.WithDuration(d))
	}
	if len(req.Flows) > 0 {
		opts = append(opts, eend.WithFlows(req.Flows...))
	}
	if rf := req.RandomFlows; rf != nil {
		flows = max(flows, rf.Count)
		packetBytes := rf.PacketBytes
		if packetBytes == 0 {
			packetBytes = 128
		}
		if rf.Limit > 0 {
			opts = append(opts, eend.WithRandomFlowsAmong(rf.Count, rf.Limit, rf.RateBps, packetBytes))
		} else {
			opts = append(opts, eend.WithRandomFlows(rf.Count, rf.RateBps, packetBytes))
		}
	}
	// Zero means "omitted"; anything else (including negative sign typos)
	// goes through the option's own validation so bad values 400 instead
	// of being silently dropped.
	if req.BatteryJ != 0 {
		opts = append(opts, eend.WithBattery(req.BatteryJ))
	}
	if req.BandwidthBps != 0 {
		opts = append(opts, eend.WithBandwidth(req.BandwidthBps))
	}
	if req.Replicates != 0 {
		opts = append(opts, eend.WithReplicates(req.Replicates))
	}
	// Sizes are checked before the facade acts on them: a topology generator
	// and the random-flow draw allocate by them at build time.
	if err := dist.CheckSize(nodes, flows); err != nil {
		return nil, err
	}
	return eend.NewScenario(opts...)
}

// stackOptions translates a stackSpec into facade stack options.
func stackOptions(spec stackSpec) ([]eend.StackOption, error) {
	routing, err := eend.ParseRouting(spec.Routing)
	if err != nil {
		return nil, err
	}
	pmName := spec.PM
	if pmName == "" {
		pmName = "odpm"
	}
	pm, err := eend.ParsePM(pmName)
	if err != nil {
		return nil, err
	}
	out := []eend.StackOption{routing, pm}
	if spec.PowerControl {
		out = append(out, eend.PowerControl())
	}
	if spec.Span {
		out = append(out, eend.Span())
	}
	if spec.PerfectSleep {
		out = append(out, eend.PerfectSleep())
	}
	if spec.Label != "" {
		out = append(out, eend.StackLabel(spec.Label))
	}
	if spec.ODPMData != "" || spec.ODPMRoute != "" {
		// Each timeout is individually optional; an omitted one keeps the
		// paper default (5 s data / 10 s route).
		var data, route time.Duration
		var err error
		if spec.ODPMData != "" {
			if data, err = time.ParseDuration(spec.ODPMData); err != nil {
				return nil, fmt.Errorf("bad odpm_data_timeout: %w", err)
			}
		}
		if spec.ODPMRoute != "" {
			if route, err = time.ParseDuration(spec.ODPMRoute); err != nil {
				return nil, fmt.Errorf("bad odpm_route_timeout: %w", err)
			}
		}
		out = append(out, eend.ODPMTimeouts(data, route))
	}
	return out, nil
}

// maxScenarioBody bounds request bodies; a scenario spec is tiny.
const maxScenarioBody = 1 << 20

// serverConfig tunes the server beyond its base context.
type serverConfig struct {
	// cacheDir roots the content-addressed result cache shared by sweeps,
	// simulator-backed optimizations, and /v1/evaluate (empty: no disk
	// cache; with peers, an in-memory local tier is used instead).
	cacheDir string
	// retainJobs caps how many finished jobs each async endpoint keeps
	// for polling (<= 0: jobs.DefaultRetain). One knob for every job
	// store — the per-endpoint constants it replaces used to drift.
	retainJobs int
	// peers are base URLs of fleet peer daemons: sweeps and optimize jobs
	// shard their simulations to the peers, and the result cache becomes
	// a tiered store that reads through to (and writes through to) them.
	peers []string
	// stateDir, when non-empty, journals job status transitions so a
	// restarted daemon reports interrupted jobs as failed instead of
	// forgetting them.
	stateDir string
	// pprof registers net/http/pprof's handlers under /debug/pprof/ (off
	// by default; the -pprof flag).
	pprof bool
}

// newServerWith builds the eendd HTTP API:
//
//	POST /v1/scenarios           run a scenario from a JSON body -> eend.Results
//	GET  /v1/experiments         list experiment and ablation IDs
//	GET  /v1/experiments/{id}    regenerate a figure (?scale=quick|full) -> eend.Figure
//	POST /v1/sweeps              start an async parameter sweep -> 202 + job
//	GET  /v1/sweeps              list sweep jobs
//	GET  /v1/sweeps/{id}         live progress, cache-hit counts and results
//	DELETE /v1/sweeps/{id}       cancel a sweep
//	POST /v1/optimize            start an async design search -> 202 + job
//	GET  /v1/optimize            list optimize jobs
//	GET  /v1/optimize/{id}       live best-so-far, iterations, cache hits; result when done
//	DELETE /v1/optimize/{id}     cancel an optimization
//	GET  /healthz                liveness probe
//
// The full request/response reference lives in docs/http-api.md.
//
// Synchronous simulations run under the request's context, so a dropped
// client connection (or server shutdown) cancels the run. Sweeps and
// optimizations are asynchronous: they run under base (the server's
// lifetime context) and are polled by id, with results cached in
// cfg.cacheDir when it is non-empty.
func newServerWith(base context.Context, cfg serverConfig) (http.Handler, error) {
	store, err := buildStore(cfg)
	if err != nil {
		return nil, err
	}
	met := newMetrics(store)

	mux := http.NewServeMux()
	sweeps, err := newJobManager(base, cfg, sweepRoutes, store, met)
	if err != nil {
		return nil, err
	}
	registerJobRoutes(mux, sweeps, startSweep)

	opts, err := newJobManager(base, cfg, optRoutes, store, met)
	if err != nil {
		return nil, err
	}
	registerJobRoutes(mux, opts, startOptimize)

	registerFleet(mux, store, met)
	mux.HandleFunc("GET /metrics", met.serveHTTP)
	if cfg.pprof {
		// Registered only when asked for: profiling handlers on a fleet
		// worker's public port are an operator decision, not a default.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The version lets a coordinator (or an operator with curl) check
		// fleet build homogeneity before trusting cross-worker fingerprints.
		writeJSON(w, http.StatusOK, map[string]string{
			"status":  "ok",
			"version": buildinfo.Version(),
		})
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{
			"experiments": eend.ExperimentIDs(),
			"ablations":   eend.AblationIDs(),
		})
	})

	mux.HandleFunc("GET /v1/experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !eend.IsExperimentID(id) {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
			return
		}
		scale, err := eend.ParseScale(r.URL.Query().Get("scale"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		fig, err := eend.RunExperiment(r.Context(), eend.Runner{Scale: scale}, id)
		if err != nil {
			writeRunError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, fig)
	})

	mux.HandleFunc("POST /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		var req scenarioRequest
		if !decodeJSONBody(w, r, &req, maxScenarioBody) {
			return
		}
		sc, err := scenarioFromRequest(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		res, err := sc.Run(r.Context())
		if err != nil {
			writeRunError(w, r, err)
			return
		}
		writeEncoded(w, func(jw *network.Writer) { jw.Results(res) })
	})

	return recoverPanics(mux), nil
}

// recoverPanics is the daemon's outermost boundary: a handler that panics
// answers 500 with the JSON error envelope (net/http alone would drop the
// connection) and the stack goes to stderr; every other request carries on.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				fmt.Fprintf(os.Stderr, "eendd: %s %s panicked: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeJSONBody enforces the JSON content type and the caller's size cap
// (maxScenarioBody, or maxEvaluateBody for whole scenario batches), decodes
// the body strictly into v, and writes the error response itself when it
// returns false.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		writeError(w, http.StatusUnsupportedMediaType, fmt.Errorf("want application/json, got %q", ct))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// writeJSON emits v, indented, with the proper content type. The body is
// encoded before the status line goes out, so a value that does not encode
// answers 500 with the error envelope instead of its status and no body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		body.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(errorResponse{Error: fmt.Sprintf("encoding the response: %v", err)})
	}
	writeBody(w, status, body.Bytes())
}

// bodies holds the buffers of writeEncoded.
var bodies = sync.Pool{New: func() any { return new(network.Writer) }}

// writeEncoded answers 200 with the body encode writes, in writeJSON's
// layout but through network's writer: the hot bodies (a Results, an
// evaluate batch) go out without reflection or an indent pass.
func writeEncoded(w http.ResponseWriter, encode func(*network.Writer)) {
	jw := bodies.Get().(*network.Writer)
	defer bodies.Put(jw)
	jw.Reset(true)
	if encode(jw); jw.Err() != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding the response: %v", jw.Err()))
		return
	}
	writeBody(w, http.StatusOK, append(jw.Buf, '\n'))
}

// writeBody sends an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client gone; there is no one left to answer
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeRunError distinguishes a client-cancelled run from a server fault.
func writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		// The client went away; 499-style status for the log's benefit.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}
