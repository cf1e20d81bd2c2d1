package opt

import (
	"math"
	"sync/atomic"

	"eend/internal/obs"
)

// Search instrumentation on the process-wide registry. Steps are counted
// where they are recorded (searchState.step), so restart merges never
// double-count a restart's own evaluations.
var (
	stepsAccepted = obs.Default().Counter("eend_opt_steps_total",
		"Search steps, by acceptance verdict.", obs.L("verdict", "accepted"))
	stepsRejected = obs.Default().Counter("eend_opt_steps_total",
		"Search steps, by acceptance verdict.", obs.L("verdict", "rejected"))
	evalSeconds = obs.Default().Histogram("eend_opt_eval_seconds",
		"One objective evaluation in seconds.", obs.LatencyBuckets)
	searchesDone = obs.Default().Counter("eend_opt_searches_total",
		"Searches completed (all methods).")
	boundSeconds = obs.Default().Histogram("eend_opt_bound_seconds",
		"One lower-bound computation in seconds.", obs.LatencyBuckets)
	lastGap = newGapGauge()
)

// moveCounters is one move kind's series of eend_opt_proposals_total
// {move,outcome} — missed when the proposal staged nothing (the reroute
// returned the current route, or found none), else accepted or rejected
// with its step — and of eend_opt_reroutes_total{move}, its shortest-path
// runs. Bound here, once, so counting in the step allocates nothing.
type moveCounters struct{ missed, accepted, rejected, reroutes *obs.Counter }

func newMoveCounters(move string) moveCounters {
	outcome := func(o string) *obs.Counter {
		return obs.Default().Counter("eend_opt_proposals_total",
			"Search move proposals, by move kind and outcome.", obs.L("move", move), obs.L("outcome", o))
	}
	return moveCounters{
		missed: outcome("missed"), accepted: outcome("accepted"), rejected: outcome("rejected"),
		reroutes: obs.Default().Counter("eend_opt_reroutes_total",
			"Shortest-path runs made by search moves, by move kind.", obs.L("move", move)),
	}
}

var moveStats = [...]moveCounters{newMoveCounters(moveRewire), newMoveCounters(moveSwap), newMoveCounters(movePowerDown)}

func statsFor(move string) *moveCounters {
	switch move {
	case moveRewire:
		return &moveStats[0]
	case moveSwap:
		return &moveStats[1]
	}
	return &moveStats[2]
}

// proposed counts a proposal that staged nothing and passes ok through.
func proposed(move string, ok bool) bool {
	if !ok {
		statsFor(move).missed.Inc()
	}
	return ok
}

// gapGauge holds the float64 optimality gap most recently applied to a
// search result. The registry's Gauge is integer-valued, so the fractional
// gap lives in an atomic bit pattern read live by a GaugeFunc at render
// time.
type gapGauge struct{ bits atomic.Uint64 }

func newGapGauge() *gapGauge {
	g := &gapGauge{}
	obs.Default().GaugeFunc("eend_opt_gap",
		"Optimality gap (best-bound)/bound of the most recent bounded search.",
		func() float64 { return math.Float64frombits(g.bits.Load()) })
	return g
}

func (g *gapGauge) set(v float64) { g.bits.Store(math.Float64bits(v)) }
