package core

import (
	"fmt"
	"math"
)

// Ledger maintains the Enetwork (Eq. 5) terms of one evolving design
// incrementally: per-node route reference counts and per-edge route counts,
// updated in O(|route|) as routes are added and removed. All mutable state
// is integer-exact, so applying a route and removing it restores the ledger
// bit-for-bit — there is no float drift to accumulate across millions of
// apply/undo cycles.
//
// Energy does NOT difference floats: it re-sums the current terms in
// exactly the accumulation order Graph.Enetwork uses (idle terms ascending
// by node id, then traffic terms in demand order, hop by hop). The result
// is therefore bit-identical to Enetwork by construction, not by
// tolerance, while costing O(V + Σ|routes|) with zero allocations instead
// of Enetwork's maps, sort and O(deg) weight scans.
//
// The ledger also keeps the idle price table a marginal-cost Reroute reads:
// what entering node v adds to Eq. 5 given the installed design — nothing
// for an endpoint or a node some route already keeps awake, TIdle·c(v)
// otherwise. Add and Remove keep it in step.
//
// A Ledger captures the graph's edge index at construction, with the
// potential tables that guide a reroute to each demand's destination (built
// there, so that no reroute allocates), and its node weights at Reset;
// mutating the graph (AddEdge, SetNodeWeight) afterwards invalidates it. A
// Ledger must not be shared between concurrent searches.
type Ledger struct {
	g   *Graph
	ix  *edgeIndex
	cfg EvalConfig

	pkts     []float64 // per demand: packets × rate factor of Eq. 5
	endpoint []bool    // per node: some demand's source or destination
	refcount []int32   // per node: routes currently crossing it
	edgeUse  []int32   // per edge id: routes currently crossing it
	price    []float64 // per node: idlePrice(v), kept in step with refcount

	// Reroute's scratch. stamp[id] == epoch marks the edges of the route a
	// run penalizes; a new epoch per run clears them for free. unguided is
	// set when some node's idle price would be negative: a guided run might
	// not meet the price the unguided one panics on.
	stamp    []uint32
	epoch    uint32
	sp       SPScratch
	unguided bool
}

// NewLedger builds an empty ledger for designs over these demands. Install
// a design with Reset, then keep it in sync route by route with Add and
// Remove.
func (g *Graph) NewLedger(demands []Demand, cfg EvalConfig) *Ledger {
	if cfg.PacketsPerDemand == 0 {
		cfg.PacketsPerDemand = 1
	}
	ix := g.index()
	l := &Ledger{
		g:        g,
		ix:       ix,
		cfg:      cfg,
		pkts:     make([]float64, len(demands)),
		endpoint: make([]bool, g.n),
		refcount: make([]int32, g.n),
		edgeUse:  make([]int32, len(ix.edgeW)),
		price:    make([]float64, g.n),
		stamp:    make([]uint32, len(ix.edgeW)),
	}
	for i, dm := range demands {
		l.pkts[i] = cfg.PacketsPerDemand * dm.rate()
		l.endpoint[dm.Src] = true
		l.endpoint[dm.Dst] = true
		ix.guide(g, &l.sp, dm.Dst, 1)
	}
	l.Reset(&Design{})
	return l
}

// Reset clears the ledger and installs design d.
func (l *Ledger) Reset(d *Design) {
	for i := range l.refcount {
		l.refcount[i] = 0
	}
	for i := range l.edgeUse {
		l.edgeUse[i] = 0
	}
	l.unguided = false
	for v := range l.price {
		l.price[v] = l.idlePrice(v)
		l.unguided = l.unguided || l.cfg.TIdle*l.g.nodeWeight[v] < 0
	}
	for _, r := range d.Routes {
		l.Add(r)
	}
}

// idlePrice is v's Eq. 5 idling term if no route keeps it awake yet.
func (l *Ledger) idlePrice(v int) float64 {
	if l.endpoint[v] || l.refcount[v] > 0 {
		return 0
	}
	return l.cfg.TIdle * l.g.nodeWeight[v]
}

// wake and release are the node halves of Add and Remove.
func (l *Ledger) wake(route []int) {
	for _, v := range route {
		l.refcount[v]++
		l.price[v] = 0
	}
}

func (l *Ledger) release(route []int) {
	for _, v := range route {
		l.refcount[v]--
		l.price[v] = l.idlePrice(v)
	}
}

// Add accounts a route's nodes and edges into the ledger.
func (l *Ledger) Add(route []int) {
	l.wake(route)
	for j := 0; j+1 < len(route); j++ {
		e, ok := l.ix.find(route[j], route[j+1])
		if !ok {
			panic(fmt.Sprintf("core: route uses missing edge (%d,%d)", route[j], route[j+1]))
		}
		l.edgeUse[e.id]++
	}
}

// Remove un-accounts a route previously Added.
func (l *Ledger) Remove(route []int) {
	l.release(route)
	for j := 0; j+1 < len(route); j++ {
		e, ok := l.ix.find(route[j], route[j+1])
		if !ok {
			panic(fmt.Sprintf("core: route uses missing edge (%d,%d)", route[j], route[j+1]))
		}
		l.edgeUse[e.id]--
	}
}

// Reroute returns the marginal-cost optimal path src..dst (appended to
// path[:0]; empty when dst is unreachable) and its cost, for a demand whose
// installed route is cur (nil: none): each edge is priced scale·w — times
// penalty on cur's own edges when penalty > 1 — and each node entered at
// its idle price with cur taken out of the design, so a node only cur keeps
// awake costs its idling again while one it shares stays free. forbidden
// (when >= 0) is priced out of reach. The ledger is unchanged on return:
// the run's three adjustments are made and undone in O(|cur|). The run is
// guided toward dst when the graph allows it (see ScaledPathInto), with the
// same path and cost as unguided.
func (l *Ledger) Reroute(src, dst int, cur []int, scale, penalty float64, forbidden int, path []int) ([]int, float64) {
	l.epoch++
	if l.epoch == 0 { // wrapped: stale stamps could alias
		clear(l.stamp)
		l.epoch = 1
	}
	if penalty > 1 {
		for j := 0; j+1 < len(cur); j++ {
			if e, ok := l.ix.find(cur[j], cur[j+1]); ok {
				l.stamp[e.id] = l.epoch
			}
		}
	}
	l.release(cur)
	if forbidden >= 0 {
		l.price[forbidden] = math.Inf(1)
	}
	var pot []float64
	if !l.unguided {
		pot = l.ix.guide(l.g, &l.sp, dst, scale)
	}
	path, cost := l.ix.pricedPath(&l.sp, src, dst, scale, penalty, l.stamp, l.epoch, l.price, pot, path)
	l.wake(cur)
	if forbidden >= 0 {
		l.price[forbidden] = l.idlePrice(forbidden)
	}
	return path, cost
}

// Price returns the idle price a reroute pays to enter node v (see Reroute).
func (l *Ledger) Price(v int) float64 { return l.price[v] }

// RefCount returns how many installed routes cross node v.
func (l *Ledger) RefCount(v int) int { return int(l.refcount[v]) }

// EdgeUse returns how many installed routes cross edge {u,v} (0 if the
// edge does not exist).
func (l *Ledger) EdgeUse(u, v int) int {
	if e, ok := l.ix.find(u, v); ok {
		return int(l.edgeUse[e.id])
	}
	return 0
}

// Active reports whether node v lies on any installed route.
func (l *Ledger) Active(v int) bool { return l.refcount[v] > 0 }

// Endpoint reports whether node v is some demand's source or destination.
func (l *Ledger) Endpoint(v int) bool { return l.endpoint[v] }

// Pkts returns demand i's packet factor of Eq. 5 (packets × rate).
func (l *Ledger) Pkts(i int) float64 { return l.pkts[i] }

// Energy evaluates Eq. 5 for d, which must be the design currently
// installed in the ledger. The accumulation order matches Graph.Enetwork
// exactly — one accumulator, idle terms ascending by node id (endpoints
// free), then traffic terms in demand order, hop by hop — so the float64
// result is bit-identical to Enetwork(demands, d, cfg).
func (l *Ledger) Energy(d *Design) float64 {
	var total float64
	for v := 0; v < l.g.n; v++ {
		if l.refcount[v] > 0 && !l.endpoint[v] {
			total += l.cfg.TIdle * l.g.nodeWeight[v]
		}
	}
	for i, r := range d.Routes {
		if r == nil {
			continue
		}
		pkts := l.pkts[i]
		for j := 0; j+1 < len(r); j++ {
			e, ok := l.ix.find(r[j], r[j+1])
			if !ok {
				panic(fmt.Sprintf("core: route %d uses missing edge (%d,%d)", i, r[j], r[j+1]))
			}
			total += pkts * l.cfg.TData * e.w
		}
	}
	return total
}
