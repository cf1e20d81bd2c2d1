package opt

import (
	"context"
	"math"
	"math/rand/v2"
)

// The retained full-recompute reference implementation of the move set:
// every move proposes a full candidate design (a deep copy — the current
// design is never mutated) and the objective re-scores it from scratch
// (Graph.Enetwork for the analytic objective). This is the pre-incremental
// kernel, kept verbatim behind refEngine so the differential suite can pin
// the incremental engine bit-identical to it — trajectories, energies and
// final fingerprints. Select it with the internal Options flag.

// activeExcept returns which nodes appear on routes other than demand skip
// (skip < 0 considers every route), plus the endpoints of every demand —
// the nodes whose idling the design is already paying for (or never pays
// for, in the endpoints' case) when demand skip is rerouted.
func (p *Problem) activeExcept(d *Design, skip int) []bool {
	act := make([]bool, p.Graph.Len())
	for i, r := range d.Routes {
		if i == skip {
			continue
		}
		for _, v := range r {
			act[v] = true
		}
	}
	for _, dm := range p.Demands {
		act[dm.Src] = true
		act[dm.Dst] = true
	}
	return act
}

// reroute computes the marginal-cost optimal route for demand i given the
// rest of the design; see incEngine.reroute for the pricing rationale.
func (p *Problem) reroute(move string, d *Design, i int, forbidden int, penalty float64) ([]int, bool) {
	statsFor(move).reroutes.Inc()
	dm := p.Demands[i]
	pkts := p.Eval.PacketsPerDemand
	if pkts == 0 {
		pkts = 1
	}
	if dm.Rate > 0 {
		pkts *= dm.Rate
	}
	var onCurrent map[[2]int]bool
	if penalty > 1 && d.Routes[i] != nil {
		onCurrent = make(map[[2]int]bool)
		r := d.Routes[i]
		for j := 0; j+1 < len(r); j++ {
			u, v := r[j], r[j+1]
			if u > v {
				u, v = v, u
			}
			onCurrent[[2]int{u, v}] = true
		}
	}
	act := p.activeExcept(d, i)
	edgeCost := func(u, v int, w float64) float64 {
		c := pkts * p.Eval.TData * w
		if onCurrent != nil {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if onCurrent[[2]int{a, b}] {
				c *= penalty
			}
		}
		return c
	}
	nodeCost := func(v int) float64 {
		if v == forbidden {
			return math.Inf(1)
		}
		if act[v] {
			return 0
		}
		return p.Eval.TIdle * p.Graph.NodeWeight(v)
	}
	path, cost := p.Graph.ShortestPath(dm.Src, dm.Dst, edgeCost, nodeCost)
	if path == nil || math.IsInf(cost, 1) {
		return nil, false
	}
	return path, true
}

// proposeRewire re-routes demand i along its marginal-cost optimal path.
func (p *Problem) proposeRewire(d *Design, i int) (*Design, bool) {
	path, ok := p.reroute(moveRewire, d, i, -1, 1)
	if !ok || routesEqual(path, d.Routes[i]) {
		return nil, false
	}
	cand := clone(d)
	cand.Routes[i] = path
	return cand, true
}

// proposeSwap re-routes demand i with its current edges penalized by a
// random factor, forcing a genuinely different path for the annealer to
// judge.
func (p *Problem) proposeSwap(d *Design, i int, rng *rand.Rand) (*Design, bool) {
	path, ok := p.reroute(moveSwap, d, i, -1, 2+6*rng.Float64())
	if !ok || routesEqual(path, d.Routes[i]) {
		return nil, false
	}
	cand := clone(d)
	cand.Routes[i] = path
	return cand, true
}

// relays returns the design's active non-endpoint nodes in ascending id
// order — the nodes a power-down move may target.
func (p *Problem) relays(d *Design) []int {
	endpoint := make([]bool, p.Graph.Len())
	for _, dm := range p.Demands {
		endpoint[dm.Src] = true
		endpoint[dm.Dst] = true
	}
	var out []int
	for _, v := range d.Active() {
		if !endpoint[v] {
			out = append(out, v)
		}
	}
	return out
}

// proposePowerDown forces relay v out of the design: every demand routed
// through v is re-routed (marginal cost, v forbidden), demands in ascending
// order so later reroutes see the relays earlier ones recruited. The move
// fails if any affected demand has no alternative.
func (p *Problem) proposePowerDown(d *Design, v int) (*Design, bool) {
	cand := clone(d)
	changed := false
	for i, r := range cand.Routes {
		uses := false
		for _, u := range r {
			if u == v {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		path, ok := p.reroute(movePowerDown, cand, i, v, 1)
		if !ok {
			return nil, false
		}
		cand.Routes[i] = path
		changed = true
	}
	if !changed {
		return nil, false
	}
	return cand, true
}

// refEngine adapts the clone-based reference moves to the engine
// interface: try* holds the proposed candidate, commit installs it as the
// current design (by pointer, exactly as the pre-incremental drivers did),
// revert drops it.
type refEngine struct {
	p    *Problem
	cur  *Design
	cand *Design
}

func newRefEngine(p *Problem, initial *Design) *refEngine {
	return &refEngine{p: p, cur: initial}
}

func (r *refEngine) design() *Design   { return r.cur }
func (r *refEngine) snapshot() *Design { return r.cur }
func (r *refEngine) relays() []int     { return r.p.relays(r.cur) }

func (r *refEngine) tryRewire(i int) bool {
	cand, ok := r.p.proposeRewire(r.cur, i)
	r.cand = cand
	return ok
}

func (r *refEngine) trySwap(i int, rng *rand.Rand) bool {
	cand, ok := r.p.proposeSwap(r.cur, i, rng)
	r.cand = cand
	return ok
}

func (r *refEngine) tryPowerDown(v int) bool {
	cand, ok := r.p.proposePowerDown(r.cur, v)
	r.cand = cand
	return ok
}

func (r *refEngine) evaluate(ctx context.Context, obj Objective) (float64, error) {
	return obj.Evaluate(ctx, r.cand)
}

func (r *refEngine) commit() {
	r.cur, r.cand = r.cand, nil
}

func (r *refEngine) revert() { r.cand = nil }
