package core

import (
	"fmt"
	"math"
)

// Approach selects one of the paper's three heuristic strategies
// (Section 4), expressed here as static design algorithms on the weighted
// graph. The simulation counterparts live in internal/routing; these static
// versions make the trade-offs measurable in isolation with Enetwork.
type Approach int

// The heuristic approaches.
const (
	// CommFirst minimizes communication energy first (MTPR-style): each
	// demand takes the minimum edge-weight path, ignoring idling cost.
	CommFirst Approach = iota + 1
	// Joint optimizes communication and idling together: a new node's idle
	// weight is charged alongside edge weights, and nodes already activated
	// by earlier demands are free (the h(u,v,r) philosophy of Eq. 12).
	Joint
	// IdleFirst minimizes idling energy first (TITAN-style): activating a
	// new node dominates any communication cost, so routes are funneled
	// through already-active relays; edge weight only breaks ties.
	IdleFirst
)

// String implements fmt.Stringer.
func (a Approach) String() string {
	switch a {
	case CommFirst:
		return "comm-first"
	case Joint:
		return "joint"
	case IdleFirst:
		return "idle-first"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// degreeBias returns a tiny multiplicative penalty that breaks cost ties in
// favor of well-connected relays: on gadgets like Fig. 4 the dedicated
// relay and the shared hub have identical greedy cost, and without the bias
// a per-demand heuristic never discovers sharing (the SF1 trap of
// Section 3). Biasing toward high-degree nodes is TITAN's neighborhood
// heuristic in static form. The epsilon is far below any real cost
// difference.
func (g *Graph) degreeBias() func(v int) float64 {
	maxDeg := 1
	for _, adj := range g.adj {
		if len(adj) > maxDeg {
			maxDeg = len(adj)
		}
	}
	return func(v int) float64 {
		return 1 + 1e-9*(1-float64(len(g.adj[v]))/float64(maxDeg+1))
	}
}

// Solve routes the demands sequentially according to the approach and
// returns the resulting design. Demands are processed in the given order;
// like the reactive protocols, the heuristics are greedy and order-
// dependent.
func (g *Graph) Solve(demands []Demand, a Approach) (*Design, error) {
	switch a {
	case CommFirst:
		return g.sequential(demands, 0, nil)
	case Joint:
		return g.sequential(demands, 1, nil)
	case IdleFirst:
		// big dominates any possible path's communication cost, making node
		// activation the primary objective.
		var big float64 = 1
		for v := 0; v < g.n; v++ {
			for _, e := range g.adj[v] {
				big += e.w
			}
		}
		return g.sequential(demands, big, nil)
	}
	return nil, fmt.Errorf("core: unknown approach %d", int(a))
}

// sequential is the one greedy pass behind Solve and SteinerForest: each
// demand in turn takes its least-cost path, where entering a node no earlier
// route activated (and that is not the demand's own endpoint) costs
// idleScale times its idle weight — 0 ignores idling, 1 weighs it beside
// the edge costs, a scale above every path's edge cost puts it first — and
// crossing an edge costs edgeCost, or with nil the edge weight times the
// demand's rate.
func (g *Graph) sequential(demands []Demand, idleScale float64, edgeCost EdgeCostFunc) (*Design, error) {
	active := make([]bool, g.n)
	bias := g.degreeBias()
	d := &Design{Routes: make([][]int, len(demands))}
	var sp SPScratch // one Dijkstra scratch across all demands
	var pathBuf []int
	for i, dm := range demands {
		g.check(dm.Src)
		g.check(dm.Dst)
		rate := dm.rate()
		// Both closures are created here and only passed down, so neither
		// is heap-allocated; a cost handed in per demand by the caller (a
		// func(Demand) EdgeCostFunc) would be, once per demand per pass.
		cost := edgeCost
		if cost == nil {
			cost = func(_, _ int, w float64) float64 { return w * rate }
		}
		var nodeCost NodeCostFunc
		if idleScale != 0 {
			nodeCost = func(v int) float64 {
				if active[v] || v == dm.Src || v == dm.Dst {
					return 0
				}
				return g.nodeWeight[v] * idleScale * bias(v)
			}
		}
		path, _ := g.ShortestPathInto(&sp, dm.Src, dm.Dst, cost, nodeCost, pathBuf)
		pathBuf = path
		if len(path) == 0 {
			return nil, fmt.Errorf("core: demand %d (%d->%d) unroutable", i, dm.Src, dm.Dst)
		}
		for _, v := range path {
			active[v] = true
		}
		d.Routes[i] = append([]int(nil), path...)
	}
	return d, nil
}

// BestApproach solves the demands with the three approaches — CommFirst,
// Joint, IdleFirst, in that order — and returns the design of least
// Enetwork (the earliest approach wins a tie) beside the Enetwork of each.
func (g *Graph) BestApproach(demands []Demand, cfg EvalConfig) (*Design, map[Approach]float64, error) {
	energies := make(map[Approach]float64, 3)
	var best *Design
	bestE := math.Inf(1)
	for _, a := range []Approach{CommFirst, Joint, IdleFirst} {
		d, err := g.Solve(demands, a)
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", a, err)
		}
		e := g.Enetwork(demands, d, cfg)
		energies[a] = e
		if e < bestE {
			best, bestE = d, e
		}
	}
	return best, energies, nil
}

// CompareApproaches solves the demands with all three approaches and
// returns the Enetwork of each (indexed by Approach).
func (g *Graph) CompareApproaches(demands []Demand, cfg EvalConfig) (map[Approach]float64, error) {
	_, energies, err := g.BestApproach(demands, cfg)
	return energies, err
}
