// Package dist is the distributed execution fleet: the worker protocol a
// daemon speaks (POST /v1/evaluate — canonical scenarios in, fingerprinted
// results out) and the sharding coordinator that spreads one sweep or
// search across many daemons.
//
// The design keeps the determinism contract intact across machine
// boundaries. A scenario travels as its canonical encoding — the exact
// byte string its fingerprint hashes — and the worker reconstructs it with
// eend.ParseCanonical, whose round-trip self-check guarantees the rebuilt
// scenario re-encodes to the same bytes. A worker therefore simulates
// precisely what the coordinator fingerprinted, every result is keyed by
// that shared fingerprint, and a distributed run merges bit-identically to
// a local one. The shared result cache (internal/cache) uses the same keys,
// so a fleet warms one cache regardless of which daemon computed what.
package dist

import (
	"context"
	"fmt"

	"eend"
	"eend/internal/buildinfo"
	"eend/internal/cache"
	"eend/internal/eval"
	"eend/internal/network"
)

// EvalRequest is the body of POST /v1/evaluate: a batch of scenarios in
// canonical encoding (eend.Scenario.Canonical).
type EvalRequest struct {
	Scenarios []string `json:"scenarios"`
}

// EvalResult is one scenario's outcome, in request order.
type EvalResult struct {
	// Fingerprint is the scenario's content address as computed by the
	// worker; a coordinator cross-checks it against its own fingerprint to
	// detect a worker running divergent simulator code.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports the result was answered from the worker's cache.
	Cached bool `json:"cached,omitempty"`
	// Results is nil when Error is set.
	Results *eend.Results `json:"results,omitempty"`
	// Error reports a scenario that failed to parse or to simulate.
	Error string `json:"error,omitempty"`
	// WorkerVersion is the build identity of the worker that produced the
	// result. It does not travel per-result on the wire — evaluators stamp
	// it from the response-level Version — but a coordinator uses it to
	// attribute a fingerprint cross-check failure to a mismatched build.
	WorkerVersion string `json:"-"`
}

// EvalResponse is the body answering POST /v1/evaluate.
type EvalResponse struct {
	Results []EvalResult `json:"results"`
	// Version is the worker's build identity (internal/buildinfo), so the
	// coordinator can tell *which* build answered when results diverge.
	Version string `json:"version,omitempty"`
}

// Encode writes the response as encoding/json would (json.Encoder's layout
// when w.Indent is set), with the results through network's writer: the
// daemon's /v1/evaluate body, without reflection or an indent pass.
func (r *EvalResponse) Encode(w *network.Writer) {
	w.Open('{')
	w.Key("results")
	if r.Results == nil {
		w.Null()
	} else {
		w.Open('[')
		for i := range r.Results {
			er := &r.Results[i]
			w.Elem()
			w.Open('{')
			if er.Fingerprint != "" {
				w.Key("fingerprint")
				w.String(er.Fingerprint)
			}
			if er.Cached {
				w.Key("cached")
				w.Bool(true)
			}
			if er.Results != nil {
				w.Key("results")
				w.Results(er.Results)
			}
			if er.Error != "" {
				w.Key("error")
				w.String(er.Error)
			}
			w.Close('}')
		}
		w.Close(']')
	}
	if r.Version != "" {
		w.Key("version")
		w.String(r.Version)
	}
	w.Close('}')
}

// MaxNodes and MaxFlows bound a scenario accepted from outside the process
// (a daemon's JSON bodies and sweep axes, a worker's canonical batch): ten
// times the largest preset, more flows than any experiment. Sizes drive
// allocation, so one unchecked request could take the machine's memory.
const (
	MaxNodes = 100_000
	MaxFlows = 10_000
)

// CheckSize reports a scenario size beyond MaxNodes or MaxFlows.
func CheckSize(nodes, flows int) error {
	if nodes > MaxNodes {
		return fmt.Errorf("%d nodes, limit %d", nodes, MaxNodes)
	}
	if flows > MaxFlows {
		return fmt.Errorf("%d flows, limit %d", flows, MaxFlows)
	}
	return nil
}

// Engine evaluates batches of canonical scenarios. It is the worker side
// of the protocol, shared by the eendd HTTP handler and the in-process
// Local evaluator.
type Engine struct {
	// Store, when non-nil, answers fingerprints it holds without
	// simulating and stores fresh results for the fleet.
	Store cache.Store
	// Workers bounds concurrent simulations (<= 0: ctx's ambient scheduler).
	Workers int
}

// Evaluate answers a batch: parse every canonical encoding and hand the
// scenarios to the shared evaluator (a cache pass per replicate seed, the
// misses simulated once each, fresh results stored). Per-scenario failures
// are reported in their slot — one malformed scenario cannot fail a batch.
// The response always has exactly one result per request scenario, in
// request order.
func (e Engine) Evaluate(ctx context.Context, scenarios []string) []EvalResult {
	out := make([]EvalResult, len(scenarios))
	items := make([]eval.Item, 0, len(scenarios))
	slots := make([]int, 0, len(scenarios)) // item index -> request slot
	for i, text := range scenarios {
		sc, err := eend.ParseCanonical(text)
		if err == nil {
			err = CheckSize(sc.NodeCount(), len(sc.Flows()))
		}
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		out[i].Fingerprint = sc.Fingerprint()
		items = append(items, eval.Item{Scenario: sc})
		slots = append(slots, i)
	}
	ev := eval.Evaluator{Store: e.Store, Workers: e.Workers}
	ev.Stream(ctx, items, func(o eval.Outcome) {
		r := &out[slots[o.Index]]
		if o.Err != nil {
			r.Error = o.Err.Error()
			return
		}
		r.Results, r.Cached = o.Results, o.Cached
	})()
	// A cancelled batch never dispatches its queued scenarios, so their
	// outcomes never arrive; those slots report the cancellation.
	for _, i := range slots {
		if r := &out[i]; r.Results == nil && r.Error == "" {
			r.Error = ctx.Err().Error()
		}
	}
	return out
}

// Evaluator is one worker a coordinator can dispatch a shard to: a remote
// daemon (Client) or the local process (Local).
type Evaluator interface {
	// Addr identifies the worker in retry events and logs.
	Addr() string
	// Evaluate runs a batch of canonical scenarios. The error covers
	// transport-level failure (worker unreachable, malformed response);
	// per-scenario failures ride inside the results.
	Evaluate(ctx context.Context, scenarios []string) ([]EvalResult, error)
}

// Local is the in-process Evaluator: the same engine a daemon serves over
// HTTP, without the network. A daemon participating in its own fleet uses
// one, and tests compose coordinators from them.
type Local struct {
	Engine
	// Name is reported by Addr; "local" when empty.
	Name string
}

// Addr identifies the evaluator.
func (l *Local) Addr() string {
	if l.Name == "" {
		return "local"
	}
	return l.Name
}

// Evaluate runs the batch in process.
func (l *Local) Evaluate(ctx context.Context, scenarios []string) ([]EvalResult, error) {
	res := l.Engine.Evaluate(ctx, scenarios)
	for i := range res {
		res[i].WorkerVersion = buildinfo.Version()
	}
	return res, nil
}
