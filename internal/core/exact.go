package core

import (
	"fmt"
	"math"
)

// maxExactRelays caps ExactSolve's enumeration: graphs with more candidate
// relays are rejected.
const maxExactRelays = 16

// ExactSolve finds a minimum-Enetwork design and its Enetwork value by brute
// force, for small instances only: it enumerates every subset of candidate
// relay nodes (everything that is not a demand endpoint), and for each
// activation set routes every demand over active nodes with Dijkstra (which
// is optimal for a fixed activation set, since edge costs are then
// independent). The design problem is NP-hard (Section 3), so this is
// exponential in the number of candidate relays; it exists to validate the
// heuristics on small graphs. The value is the optimum; where several
// designs attain it, which one comes back follows the order the
// shortest-path kernel's heap settles equal-distance nodes in — a function
// of the arguments, but not "lowest id first".
func (g *Graph) ExactSolve(demands []Demand, cfg EvalConfig) (*Design, float64, error) {
	allowed := make([]bool, g.n) // endpoints always; relays per mask
	for _, dm := range demands {
		g.check(dm.Src)
		g.check(dm.Dst)
		allowed[dm.Src], allowed[dm.Dst] = true, true
	}
	var relays []int
	for v := 0; v < g.n; v++ {
		if !allowed[v] {
			relays = append(relays, v)
		}
	}
	if len(relays) > maxExactRelays {
		return nil, 0, fmt.Errorf("core: %d candidate relays exceed the exact-solver cap %d",
			len(relays), maxExactRelays)
	}

	bestCost := math.Inf(1)
	var best *Design
	var sp SPScratch // one Dijkstra scratch across all masks and demands
	for mask := 0; mask < 1<<len(relays); mask++ {
		for i, v := range relays {
			allowed[v] = mask&(1<<i) != 0
		}
		d, ok := g.routeWithin(&sp, demands, allowed)
		if !ok {
			continue
		}
		if cost := g.Enetwork(demands, d, cfg); cost < bestCost {
			bestCost = cost
			best = d
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible design (graph disconnected?)")
	}
	return best, bestCost, nil
}

// routeWithin routes every demand using only allowed nodes, minimizing
// communication cost per demand (optimal for a fixed activation set).
func (g *Graph) routeWithin(sp *SPScratch, demands []Demand, allowed []bool) (*Design, bool) {
	// Infinite node cost on disallowed nodes keeps Dijkstra inside the
	// activation set; edge cost is the communication energy.
	blockInactive := func(v int) float64 {
		if allowed[v] {
			return 0
		}
		return math.Inf(1)
	}
	d := &Design{Routes: make([][]int, len(demands))}
	for i, dm := range demands {
		rate := dm.rate()
		path, _ := g.ShortestPathInto(sp, dm.Src, dm.Dst,
			func(_, _ int, w float64) float64 { return w * rate }, blockInactive, nil)
		if len(path) == 0 {
			return nil, false
		}
		d.Routes[i] = path
	}
	return d, true
}
