package main

import (
	"fmt"
	"net/http"

	"eend/internal/buildinfo"
	"eend/internal/cache"
	"eend/internal/dist"
	"eend/internal/exec"
)

// maxEvaluateBody bounds POST /v1/evaluate bodies: canonical scenarios
// are a few hundred bytes each, so this admits tens of thousands of them.
const maxEvaluateBody = 32 << 20

// maxEvalScenarios bounds one evaluate batch; a coordinator's shards are
// far smaller, so hitting this means a misbehaving client.
const maxEvalScenarios = 10000

// buildStore assembles the daemon's result store from its configuration:
//
//	-cache only          the on-disk store
//	-peers only          in-memory local tier, tiered over the peers
//	-cache and -peers    the disk store, tiered over the peers
//	neither              no store (every evaluation simulates)
//
// The tiered store reads through to peers (backfilling locally) and writes
// through to them, so a fleet of peered daemons shares one warm cache.
func buildStore(cfg serverConfig) (cache.Store, error) {
	var local cache.Store
	switch {
	case cfg.cacheDir != "":
		disk, err := cache.Open(cfg.cacheDir)
		if err != nil {
			return nil, err
		}
		local = disk
	case len(cfg.peers) > 0:
		local = cache.NewMem()
	default:
		return nil, nil
	}
	if len(cfg.peers) == 0 {
		return local, nil
	}
	remotes := make([]cache.Store, len(cfg.peers))
	for i, p := range cfg.peers {
		remotes[i] = cache.NewRemote(p, nil)
	}
	return cache.NewTiered(local, remotes...), nil
}

// registerFleet installs the worker-protocol endpoints: the batch
// evaluator a dist coordinator dispatches shards to, and the cache wire
// endpoints Remote stores read and write.
func registerFleet(mux *http.ServeMux, store cache.Store, met *metrics) {
	// A pool per batch: one request's cold runs never delay another's lookups.
	engine := dist.Engine{Store: store, Workers: exec.Workers(0)}

	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		var req dist.EvalRequest
		if !decodeJSONBody(w, r, &req, maxEvaluateBody) {
			return
		}
		if len(req.Scenarios) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("empty scenario batch"))
			return
		}
		if len(req.Scenarios) > maxEvalScenarios {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("batch of %d scenarios, limit %d", len(req.Scenarios), maxEvalScenarios))
			return
		}
		// The batch runs under the request context: a coordinator that
		// gives up on this worker (retrying elsewhere) aborts the work
		// here instead of leaving orphaned simulations.
		results := engine.Evaluate(r.Context(), req.Scenarios)
		for _, er := range results {
			if er.Error == "" && !er.Cached {
				met.evaluations.Inc()
			}
		}
		resp := dist.EvalResponse{Results: results, Version: buildinfo.Version()}
		writeEncoded(w, resp.Encode)
	})

	if store != nil {
		// The wire serves the local tier only: answering or accepting a
		// peer's request through the Tiered store would forward it right
		// back to the fleet (mutually peered daemons would ping-pong every
		// Put). Fleet propagation happens on the daemon's own writes.
		wire := store
		if t, ok := store.(*cache.Tiered); ok {
			wire = t.Local()
		}
		ch := cache.Handler(wire)
		mux.Handle("GET /v1/cache/{fp}", ch)
		mux.Handle("PUT /v1/cache/{fp}", ch)
		return
	}
	unavailable := func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("no cache configured (start eendd with -cache or -peers)"))
	}
	mux.HandleFunc("GET /v1/cache/{fp}", unavailable)
	mux.HandleFunc("PUT /v1/cache/{fp}", unavailable)
}
