package opt

import (
	"context"
	"math"
	"math/rand/v2"

	"eend/internal/core"
)

// The local moves of the search, behind the engine abstraction. The
// incremental engine (incEngine, the default) mutates one live design in
// place: a move stages an O(|old path| + |new path|) route replacement
// (or a batch of them for power-down), evaluation folds the ledger's
// integer-exact terms, and a rejection undoes the staged routes in
// O(path) — no clone(d) per proposal, zero allocations in steady state.
// The retained full-recompute path (reference.go) proposes whole candidate
// designs exactly as the pre-incremental code did; the determinism
// contract pins the two engines bit-identical.
//
// All randomness flows through the driver's seeded rng and all tie-breaks
// are deterministic, so a fixed Options.Seed replays the exact move
// sequence on either engine.

// moveName labels trajectory steps.
const (
	moveRewire    = "rewire"
	moveSwap      = "swap"
	movePowerDown = "powerdown"
)

// engine is the search kernel behind the drivers: it owns the current
// design and turns move proposals into staged state the driver can
// evaluate, then commit or revert. A try* call that returns false staged
// nothing (the proposal was degenerate or infeasible); a call that returns
// true MUST be followed by exactly one evaluate and then one commit or
// revert before the next proposal.
type engine interface {
	// design returns the engine's current design. The incremental engine
	// mutates it in place; callers must not retain it across moves.
	design() *Design
	// relays lists the current design's active non-endpoint nodes in
	// ascending id order. The returned slice may be reused by the engine.
	relays() []int
	// tryRewire stages demand i's marginal-cost optimal re-route.
	tryRewire(i int) bool
	// trySwap stages a re-route of demand i with its current edges
	// penalized by a random factor drawn from rng.
	trySwap(i int, rng *rand.Rand) bool
	// tryPowerDown stages re-routes of every demand crossing relay v, with
	// v forbidden. False means some demand had no alternative (nothing
	// stays staged) or no route used v.
	tryPowerDown(v int) bool
	// evaluate scores the design with the staged move applied.
	evaluate(ctx context.Context, obj Objective) (float64, error)
	// commit keeps the staged move.
	commit()
	// revert undoes the staged move exactly — design, ledger and
	// refcounts return bit-identical to their pre-stage state.
	revert()
	// snapshot returns the current design for best-so-far bookkeeping; the
	// result must remain valid (un-mutated) across later moves.
	snapshot() *Design
}

// newEngine picks the search kernel: the incremental one by default, the
// retained full-recompute reference when the internal Options flag asks
// for it.
func newEngine(p *Problem, initial *Design, reference bool) engine {
	if reference {
		return newRefEngine(p, initial)
	}
	return newIncEngine(p, initial)
}

// routesEqual reports whether two routes visit the same nodes in order.
func routesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// incEngine is the incremental search kernel. It keeps one live design in
// sync with a core.Ledger (node refcounts, per-edge route counts, Eq. 5
// terms, the idle price table) and re-routes through the ledger's priced
// shortest-path kernel, so a steady-state proposal allocates nothing.
type incEngine struct {
	p   *Problem
	cur *Design
	led *core.Ledger

	pathBuf  []int
	relayBuf []int
	// spare[i] is demand i's standby route buffer: staging swaps it with
	// the route it replaces, so the engine double-buffers routes per
	// demand instead of allocating per proposal.
	spare  [][]int
	staged []stagedRoute
}

// stagedRoute is one apply/undo record: demand i's route before the staged
// move (a power-down stages one record per affected demand).
type stagedRoute struct {
	i   int
	old []int
}

func newIncEngine(p *Problem, initial *Design) *incEngine {
	m := &incEngine{
		p:     p,
		cur:   clone(initial),
		led:   p.Graph.NewLedger(p.Demands, p.Eval),
		spare: make([][]int, len(p.Demands)),
	}
	m.led.Reset(m.cur)
	return m
}

func (m *incEngine) design() *Design { return m.cur }

func (m *incEngine) snapshot() *Design { return clone(m.cur) }

func (m *incEngine) relays() []int {
	m.relayBuf = m.relayBuf[:0]
	for v := 0; v < m.p.Graph.Len(); v++ {
		if m.led.Active(v) && !m.led.Endpoint(v) {
			m.relayBuf = append(m.relayBuf, v)
		}
	}
	return m.relayBuf
}

// reroute computes the marginal-cost optimal route for demand i given the
// rest of the design: edges are priced at their exact Eq. 5 traffic
// contribution, nodes at their exact idling contribution — zero for nodes
// the rest of the design already keeps awake, so the route is pulled toward
// shared relays (the Steiner rewiring philosophy). forbidden (when >= 0) is
// priced out of reach, and penalty > 1 multiplies the traffic cost of the
// current route's edges to force the search onto alternatives. The
// returned path aliases the engine's path buffer.
func (m *incEngine) reroute(move string, i, forbidden int, penalty float64) ([]int, bool) {
	statsFor(move).reroutes.Inc()
	dm := m.p.Demands[i]
	// Go associates a*b*c as (a*b)*c, so scaling each weight by the hoisted
	// pkts*TData keeps every edge price bit-identical to the reference's.
	path, cost := m.led.Reroute(dm.Src, dm.Dst, m.cur.Routes[i],
		m.led.Pkts(i)*m.p.Eval.TData, penalty, forbidden, m.pathBuf[:0])
	m.pathBuf = path
	if len(path) == 0 || math.IsInf(cost, 1) {
		return nil, false
	}
	return path, true
}

// stage replaces demand i's route with path (copied into the demand's
// spare buffer) and records the undo.
func (m *incEngine) stage(i int, path []int) {
	old := m.cur.Routes[i]
	nr := append(m.spare[i][:0], path...)
	m.spare[i] = nil
	m.led.Remove(old)
	m.led.Add(nr)
	m.cur.Routes[i] = nr
	m.staged = append(m.staged, stagedRoute{i: i, old: old})
}

func (m *incEngine) commit() {
	for _, s := range m.staged {
		m.spare[s.i] = s.old
	}
	m.staged = m.staged[:0]
}

func (m *incEngine) revert() {
	for k := len(m.staged) - 1; k >= 0; k-- {
		s := m.staged[k]
		nr := m.cur.Routes[s.i]
		m.led.Remove(nr)
		m.led.Add(s.old)
		m.cur.Routes[s.i] = s.old
		m.spare[s.i] = nr
	}
	m.staged = m.staged[:0]
}

func (m *incEngine) tryRewire(i int) bool {
	path, ok := m.reroute(moveRewire, i, -1, 1)
	if !ok || routesEqual(path, m.cur.Routes[i]) {
		return false
	}
	m.stage(i, path)
	return true
}

func (m *incEngine) trySwap(i int, rng *rand.Rand) bool {
	path, ok := m.reroute(moveSwap, i, -1, 2+6*rng.Float64())
	if !ok || routesEqual(path, m.cur.Routes[i]) {
		return false
	}
	m.stage(i, path)
	return true
}

// tryPowerDown forces relay v out of the design: every demand routed
// through v is re-routed (marginal cost, v forbidden), demands in ascending
// order so later reroutes see the relays earlier ones recruited. The move
// fails — and the staged prefix is undone — if any affected demand has no
// alternative.
func (m *incEngine) tryPowerDown(v int) bool {
	changed := false
	for i := range m.cur.Routes {
		uses := false
		for _, u := range m.cur.Routes[i] {
			if u == v {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		path, ok := m.reroute(movePowerDown, i, v, 1)
		if !ok {
			m.revert()
			return false
		}
		m.stage(i, path)
		changed = true
	}
	return changed
}

// evaluate scores the staged design. The analytic objective folds the
// ledger's terms (bit-identical to Graph.Enetwork, zero allocations); any
// other objective sees the live design, which is safe because objectives
// consume it synchronously.
func (m *incEngine) evaluate(ctx context.Context, obj Objective) (float64, error) {
	if a, ok := obj.(analytic); ok && a.p == m.p {
		return m.led.Energy(m.cur), nil
	}
	return obj.Evaluate(ctx, m.cur)
}
