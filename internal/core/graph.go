// Package core implements the paper's primary formal contribution: the
// energy-efficient network design problem (Section 3). It provides the
// node- and edge-weighted graph model, the Enetwork objective (Eq. 5),
// shortest-path and Steiner-style construction algorithms (including the
// MPC algorithm of [24] the paper critiques), the worked Steiner gadgets of
// Figs. 1-6 with their closed-form energies (Eqs. 6-9), the three heuristic
// approaches as static graph algorithms, and the analytical characteristic
// hop count study of Section 5.1 (Eq. 15, Fig. 7).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an undirected graph with node weights c(v) (idle power of keeping
// v awake) and edge weights w(e) (energy per unit of data across e).
type Graph struct {
	n          int
	nodeWeight []float64
	adj        [][]halfEdge

	// idx is the lazily built sorted-adjacency edge index (nil until the
	// first indexed lookup; AddEdge invalidates it). The double-checked
	// build under idxMu keeps concurrent readers — parallel restarts share
	// one Graph — race-free without locking the read path.
	idx   atomic.Pointer[edgeIndex]
	idxMu sync.Mutex
}

type halfEdge struct {
	to int
	w  float64
}

// NewGraph creates a graph with n nodes, zero node weights and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:          n,
		nodeWeight: make([]float64, n),
		adj:        make([][]halfEdge, n),
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// SetNodeWeight sets c(v).
func (g *Graph) SetNodeWeight(v int, c float64) {
	g.check(v)
	g.nodeWeight[v] = c
}

// NodeWeight returns c(v).
func (g *Graph) NodeWeight(v int) float64 {
	g.check(v)
	return g.nodeWeight[v]
}

// AddEdge adds the undirected edge {u,v} with weight w. Parallel edges are
// permitted but pointless; self-loops are rejected. Adding an edge
// invalidates the edge index (and any Ledger built on it).
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("core: self-loop on node %d", u))
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	g.idx.Store(nil)
}

// edgeIndex is the sorted-adjacency view of the graph: per node, its
// neighbors ascending by id with parallel edges collapsed to their minimum
// weight, each entry carrying a packed undirected edge id. It turns
// EdgeWeight's O(deg) scan into O(log deg) and gives per-edge bookkeeping
// (the Ledger's traffic counts) an O(1) dense id space.
//
// arcs is the other view the index caches: the adjacency in insertion order
// (the order Dijkstra relaxes in), flattened CSR-style — node u's entries
// are arcs[off[u]:off[u+1]], parallel edges kept with their own weight, each
// carrying its collapsed pair's id. pricedPath walks it.
//
// pot holds, per destination, the guide of both kernels toward it (see
// guide): the edge-weight distance D(v,dst), built on first request under
// potMu, and the tally of the runs it guided. No table is built for a graph
// with a negative or non-finite weight (guidable false), nor beyond
// maxTables; they go with the index when AddEdge drops it.
type edgeIndex struct {
	nbr   [][]nbrEdge
	edgeW []float64 // packed edge id -> weight
	off   []int32
	arcs  []nbrEdge

	guidable  bool
	pot       []potSlot
	potMu     sync.Mutex
	tables    atomic.Int64 // tables built, added to under potMu
	maxTables int64        // see index
}

// potSlot is one destination's guide: its distance table, and how many runs
// it guided and how many of those were voided and rerun unguided.
type potSlot struct {
	table       atomic.Pointer[[]float64]
	runs, voids atomic.Int64
}

type nbrEdge struct {
	to int32
	id int32
	w  float64
}

// index returns the current edge index, building it on first use.
func (g *Graph) index() *edgeIndex {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	ix := &edgeIndex{nbr: make([][]nbrEdge, g.n)}
	for u := range g.adj {
		list := make([]nbrEdge, 0, len(g.adj[u]))
		for _, e := range g.adj[u] {
			list = append(list, nbrEdge{to: int32(e.to), w: e.w})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].to != list[j].to {
				return list[i].to < list[j].to
			}
			return list[i].w < list[j].w
		})
		// Collapse parallel edges to their minimum weight (EdgeWeight's
		// documented semantics); after the sort the first entry per
		// neighbor is the minimum.
		out := list[:0]
		for _, e := range list {
			if n := len(out); n > 0 && out[n-1].to == e.to {
				continue
			}
			out = append(out, e)
		}
		ix.nbr[u] = out
	}
	// Edge ids are assigned in lexicographic (u,v) order over u < v, then
	// mirrored to the v-side entries — a label-determined packing, so equal
	// graphs index equally.
	for u := 0; u < g.n; u++ {
		for i := range ix.nbr[u] {
			if v := int(ix.nbr[u][i].to); v > u {
				ix.nbr[u][i].id = int32(len(ix.edgeW))
				ix.edgeW = append(ix.edgeW, ix.nbr[u][i].w)
			}
		}
	}
	for u := 0; u < g.n; u++ {
		for i := range ix.nbr[u] {
			if v := int(ix.nbr[u][i].to); v < u {
				e, ok := ix.find(v, u)
				if !ok {
					panic(fmt.Sprintf("core: edge index asymmetry on {%d,%d}", v, u))
				}
				ix.nbr[u][i].id = e.id
			}
		}
	}
	ix.off = make([]int32, g.n+1)
	for u := range g.adj {
		ix.off[u+1] = ix.off[u] + int32(len(g.adj[u]))
	}
	ix.arcs = make([]nbrEdge, 0, ix.off[g.n])
	ix.guidable = true
	for u := range g.adj {
		for _, e := range g.adj[u] {
			pair, _ := ix.find(u, e.to)
			ix.arcs = append(ix.arcs, nbrEdge{to: int32(e.to), id: pair.id, w: e.w})
			ix.guidable = ix.guidable && e.w >= 0 && !math.IsInf(e.w, 1)
		}
	}
	ix.pot = make([]potSlot, g.n)
	// The tables may take at most the memory the index takes, counted in
	// 8-byte words: two per nbrEdge in arcs and nbr, one per edge weight,
	// three per neighbor-list header, half per offset. A table takes n.
	words := 2*len(ix.arcs) + len(ix.edgeW) + 3*g.n + len(ix.off)/2
	for _, list := range ix.nbr {
		words += 2 * len(list)
	}
	ix.maxTables = int64(max(1, words/max(1, g.n)))
	g.idx.Store(ix)
	return ix
}

// guideMargin scales the potential just below scale·D, so that rounding in
// D, in the product and along a path cannot lift it above a true remaining
// cost; guideTol is the relative gap under which a key still waiting when
// dst settles is a near-tie (ARCHITECTURE, "The potential"). guideProbe is
// how many runs to a destination the guide tallies before it judges them.
const (
	guideMargin = 1 - 1e-9
	guideTol    = 1e-12
	guideProbe  = 16
)

// guide returns the distance table that guides a run to dst whose every arc
// costs at least scale·w, or nil when the run must go unguided: scale not
// positive and finite, a graph with a negative or non-finite weight, a
// destination left without a table once maxTables were built, or one whose
// runs were voided more often than not over guideProbe or more (a voided
// run costs its guided part on top of the unguided rerun; a lattice with
// equal weights voids most). The table is computed once per destination, by
// a plain full Dijkstra over the edge weights from dst on the caller's
// scratch s, and shared by every caller after that.
func (ix *edgeIndex) guide(g *Graph, s *SPScratch, dst int, scale float64) []float64 {
	if !ix.guidable || !(scale > 0) || math.IsInf(scale, 1) {
		return nil
	}
	slot := &ix.pot[dst]
	if p := slot.table.Load(); p != nil {
		if runs := slot.runs.Load(); runs >= guideProbe && 2*slot.voids.Load() > runs {
			return nil
		}
		return *p
	}
	if ix.tables.Load() == ix.maxTables {
		return nil
	}
	ix.potMu.Lock()
	defer ix.potMu.Unlock()
	if p := slot.table.Load(); p != nil {
		return *p
	}
	if ix.tables.Load() == ix.maxTables {
		return nil
	}
	g.dijkstra(s, dst, -1, 1, nil, nil, nil)
	d := slices.Clone(s.dist)
	slot.table.Store(&d)
	ix.tables.Add(1)
	return d
}

// tally records that a run to dst went guided, and whether its result was
// kept, on the scratch and on dst's guide; it returns kept.
func (ix *edgeIndex) tally(s *SPScratch, dst int, kept bool) bool {
	s.guided++
	ix.pot[dst].runs.Add(1)
	if !kept {
		s.fallbacks++
		ix.pot[dst].voids.Add(1)
	}
	return kept
}

// find binary-searches u's sorted neighbor list for v.
func (ix *edgeIndex) find(u, v int) (nbrEdge, bool) {
	list := ix.nbr[u]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(list[mid].to) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && int(list[lo].to) == v {
		return list[lo], true
	}
	return nbrEdge{}, false
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists (the
// minimum if parallel edges were added). O(log deg) via the edge index.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	g.check(u)
	g.check(v)
	if e, ok := g.index().find(u, v); ok {
		return e.w, true
	}
	return math.Inf(1), false
}

// Neighbors returns the adjacency of v as (neighbor, weight) pairs.
func (g *Graph) Neighbors(v int) []struct {
	To int
	W  float64
} {
	g.check(v)
	out := make([]struct {
		To int
		W  float64
	}, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i].To, out[i].W = e.to, e.w
	}
	return out
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("core: node %d out of range [0,%d)", v, g.n))
	}
}

// Demand is one traffic demand (si, di, ri) of the design problem.
type Demand struct {
	Src, Dst int
	Rate     float64
}

// rate is ri as every routing cost and Eq. 5 term weighs it: a demand that
// states none (any Rate not above zero) counts as 1, and multiplying by that
// 1 is exact, so a term reads the same bits with or without a stated rate.
func (d Demand) rate() float64 {
	if d.Rate > 0 {
		return d.Rate
	}
	return 1
}

// EdgeCostFunc maps an edge (u,v,w) to a routing cost.
type EdgeCostFunc func(u, v int, w float64) float64

// NodeCostFunc maps entering node v to an additional routing cost.
type NodeCostFunc func(v int) float64

func defaultEdgeCost(_, _ int, w float64) float64 { return w }
func zeroNodeCost(int) float64                    { return 0 }

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

// SPScratch owns the dist/parent/done/heap buffers of a shortest-path run,
// so a search loop can run Dijkstra repeatedly with zero per-call
// allocation. The zero value is ready to use; a scratch must not be shared
// between concurrent searches. DijkstraInto's returned slices alias the
// scratch and are valid until its next use.
type SPScratch struct {
	dist   []float64
	parent []int
	done   []bool
	ncost  []float64 // memoized nodeCost per run; NaN = not yet computed
	heap   []pqItem

	// guided counts the runs this scratch started under a potential and
	// fallbacks those of them that were voided and rerun unguided.
	guided, fallbacks int
}

func (s *SPScratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.parent = make([]int, n)
		s.done = make([]bool, n)
		s.ncost = make([]float64, n)
	}
	s.dist, s.parent, s.done, s.ncost = s.dist[:n], s.parent[:n], s.done[:n], s.ncost[:n]
	nan := math.NaN()
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.parent[i] = -1
		s.done[i] = false
		s.ncost[i] = nan
	}
	s.heap = s.heap[:0]
}

// heapPush and heapPop replicate container/heap's sift order exactly (break
// on !Less(j,i); prefer the right child only when strictly less), so the
// pop order — and with it every equal-cost tie-break in the fixed-seed
// search trajectories — is bit-identical to the container/heap
// implementation this replaced.
func (s *SPScratch) heapPush(it pqItem) {
	s.heap = append(s.heap, it)
	for j := len(s.heap) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		j = i
	}
}

func (s *SPScratch) heapPop() pqItem {
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], s.heap[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.heap[j2].dist < s.heap[j].dist {
			j = j2
		}
		if !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		i = j
	}
	it := s.heap[n]
	s.heap = s.heap[:n]
	return it
}

// clearLead reports whether no live heap entry (one whose node has not
// settled) has a key within guideTol of key: the check a guided run makes
// when dst settles at key.
func (s *SPScratch) clearLead(key float64) bool {
	lim := key + key*guideTol
	for _, it := range s.heap {
		if it.dist <= lim && !s.done[it.node] {
			return false
		}
	}
	return true
}

// DijkstraInto computes least-cost distances and parents from src using the
// scratch's buffers — zero allocations in steady state. edgeCost defaults
// to the edge weight; nodeCost (charged on entering a node other than src)
// defaults to zero. Costs must be non-negative. Edges relax in adjacency
// insertion order, exactly as Dijkstra always has, so equal-cost parent
// ties resolve identically.
func (g *Graph) DijkstraInto(s *SPScratch, src int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc) (dist []float64, parent []int) {
	g.dijkstra(s, src, -1, 1, edgeCost, nodeCost, nil)
	return s.dist, s.parent
}

// dijkstra is the closure kernel behind DijkstraInto, ShortestPathInto and
// ScaledPathInto. An arc costs edgeCost(u,v,w), or scale·w when edgeCost is
// nil, plus nodeCost of the node entered. nodeCost is memoized per node for
// the duration of the run (callers' cost closures are pure within one call),
// and when dst is a valid node the run stops as soon as dst settles: with
// non-negative costs and strict-< relaxation, a settled node's dist and the
// parent chain behind it can never change, so the path ShortestPathInto
// walks is bit-identical to a full run's.
//
// With a potential pot (guide's table for dst, non-nil only when every arc
// costs at least scale·w) the run is A*: heap keys are dist plus
// float64(scale·pot[v])·guideMargin, dist itself is computed as without it.
// It returns false, its result void, on any of the three events under which
// its path or cost could differ from the unguided run's — a relaxation equal
// to a finite tentative distance, an improvement to a settled node, a live
// heap key within guideTol of dst's when dst settles — and on a negative
// cost, which the unguided run reports. Unguided it always returns true.
func (g *Graph) dijkstra(s *SPScratch, src, dst int, scale float64, edgeCost EdgeCostFunc, nodeCost NodeCostFunc, pot []float64) bool {
	g.check(src)
	if nodeCost == nil {
		nodeCost = zeroNodeCost
	}
	s.reset(g.n)
	dist, parent, done, ncost := s.dist, s.parent, s.done, s.ncost
	dist[src] = 0
	s.heapPush(pqItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		u := s.heapPop().node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			return pot == nil || s.clearLead(dist[u])
		}
		du := dist[u]
		for _, e := range g.adj[u] {
			v := e.to
			nc := ncost[v]
			if nc != nc { // NaN: not computed yet
				nc = nodeCost(v)
				ncost[v] = nc
			}
			var c float64
			if edgeCost == nil {
				c = float64(scale*e.w) + nc
			} else {
				c = edgeCost(u, v, e.w) + nc
			}
			if c < 0 {
				if pot != nil {
					return false
				}
				panic("core: negative cost in Dijkstra")
			}
			nd := du + c
			if pot != nil { // guided: void the run on a tie or on improving a settled node
				if nd == dist[v] && !math.IsInf(nd, 1) || nd < dist[v] && done[v] {
					return false
				}
				if nd < dist[v] {
					dist[v] = nd
					parent[v] = u
					s.heapPush(pqItem{node: v, dist: nd + float64(float64(scale*pot[v])*guideMargin)})
				}
			} else if nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				s.heapPush(pqItem{node: v, dist: nd})
			}
		}
	}
	return true
}

// Dijkstra computes least-cost distances and parents from src. The returned
// slices are freshly allocated; hot loops should hold an SPScratch and call
// DijkstraInto instead.
func (g *Graph) Dijkstra(src int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc) (dist []float64, parent []int) {
	return g.DijkstraInto(new(SPScratch), src, edgeCost, nodeCost)
}

// ShortestPathInto returns the least-cost path src..dst appended to
// path[:0] and its cost. An empty path (with +Inf cost) means dst is
// unreachable; a reachable dst always yields at least [dst]. The run stops
// as soon as dst settles — the returned path and cost are bit-identical to
// a full Dijkstra's (see dijkstra).
func (g *Graph) ShortestPathInto(s *SPScratch, src, dst int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc, path []int) ([]int, float64) {
	g.dijkstra(s, src, dst, 1, edgeCost, nodeCost, nil)
	g.check(dst)
	return s.pathTo(dst, path)
}

// ScaledPathInto is ShortestPathInto for edge cost scale·w, the shape the
// Lagrangian bound's passes price a demand with: same comparisons on the
// same floats, so the same path and Float64bits-equal cost. Because every
// arc then costs at least scale·w, the run is guided toward dst by the
// edge-weight distance to it (see dijkstra) whenever scale is positive and
// finite and the graph has no negative or non-finite weight; a guided run
// the kernel cannot vouch for is rerun unguided. nodeCost must be
// non-negative.
func (g *Graph) ScaledPathInto(s *SPScratch, src, dst int, scale float64, nodeCost NodeCostFunc, path []int) ([]int, float64) {
	g.check(src)
	g.check(dst)
	ix := g.index()
	if pot := ix.guide(g, s, dst, scale); pot != nil && ix.tally(s, dst, g.dijkstra(s, src, dst, scale, nil, nodeCost, pot)) {
		return s.pathTo(dst, path)
	}
	g.dijkstra(s, src, dst, scale, nil, nodeCost, nil)
	return s.pathTo(dst, path)
}

// pathTo walks the finished run's parent chain back from dst and returns
// the path src..dst appended to path[:0] with its cost (empty and +Inf when
// dst was not reached).
func (s *SPScratch) pathTo(dst int, path []int) ([]int, float64) {
	path = path[:0]
	if math.IsInf(s.dist[dst], 1) {
		return path, math.Inf(1)
	}
	for v := dst; v != -1; v = s.parent[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, s.dist[dst]
}

// pricedPath is ScaledPathInto flattened for the one cost shape a reroute
// has: crossing an arc costs scale·w — times penalty where stamp[arc id] ==
// epoch — and entering node v costs price[v]. It makes the same comparisons
// on the same floats in the same order as dijkstra run with closures
// computing those prices (same reset, heap, strict-< relaxation in
// insertion order, early exit at dst, panic on a negative cost), so path
// and cost are bit-identical; it drops two indirect calls, the memo branch
// and any per-arc lookup. Each product is converted to float64 on its own:
// that forbids fusing it into the following add, which would round once
// where the closures round twice. Every arc costs at least scale·w (penalty
// only ever raises it), so pot — guide's table for dst, or nil — guides the
// run exactly as it guides dijkstra, with the same fallback.
func (ix *edgeIndex) pricedPath(s *SPScratch, src, dst int, scale, penalty float64, stamp []uint32, epoch uint32, price, pot []float64, path []int) ([]int, float64) {
	if pot != nil && ix.tally(s, dst, ix.pricedRun(s, src, dst, scale, penalty, stamp, epoch, price, pot)) {
		return s.pathTo(dst, path)
	}
	ix.pricedRun(s, src, dst, scale, penalty, stamp, epoch, price, nil)
	return s.pathTo(dst, path)
}

// pricedRun is pricedPath's one run, returning what dijkstra returns.
func (ix *edgeIndex) pricedRun(s *SPScratch, src, dst int, scale, penalty float64, stamp []uint32, epoch uint32, price, pot []float64) bool {
	s.reset(len(price))
	dist, parent, done := s.dist, s.parent, s.done
	dist[src] = 0
	s.heapPush(pqItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		u := s.heapPop().node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			return pot == nil || s.clearLead(dist[u])
		}
		du := dist[u]
		for _, e := range ix.arcs[ix.off[u]:ix.off[u+1]] {
			c := float64(scale * e.w)
			if stamp[e.id] == epoch {
				c = float64(c * penalty)
			}
			c += price[e.to]
			if c < 0 {
				if pot != nil {
					return false
				}
				panic("core: negative cost in Dijkstra")
			}
			nd := du + c
			if pot != nil { // guided: void the run on a tie or on improving a settled node
				if nd == dist[e.to] && !math.IsInf(nd, 1) || nd < dist[e.to] && done[e.to] {
					return false
				}
				if nd < dist[e.to] {
					dist[e.to] = nd
					parent[e.to] = u
					s.heapPush(pqItem{node: int(e.to), dist: nd + float64(float64(scale*pot[e.to])*guideMargin)})
				}
			} else if nd < dist[e.to] {
				dist[e.to] = nd
				parent[e.to] = u
				s.heapPush(pqItem{node: int(e.to), dist: nd})
			}
		}
	}
	return true
}

// ShortestPath returns the least-cost path src..dst and its cost, or nil if
// unreachable.
func (g *Graph) ShortestPath(src, dst int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc) ([]int, float64) {
	path, cost := g.ShortestPathInto(new(SPScratch), src, dst, edgeCost, nodeCost, nil)
	if len(path) == 0 {
		return nil, math.Inf(1)
	}
	return path, cost
}

// Design is a solution to the design problem: one route per demand.
type Design struct {
	Routes [][]int // Routes[i] serves Demand i (nil: unserved)
}

// Active returns the nodes appearing on any route, each once, in ascending
// id — the order Enetwork sums them in.
func (d *Design) Active() []int {
	var ids []int
	for _, r := range d.Routes {
		ids = append(ids, r...)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Feasible reports whether every demand has a route connecting its
// endpoints.
func (d *Design) Feasible(demands []Demand) bool {
	if len(d.Routes) != len(demands) {
		return false
	}
	for i, r := range d.Routes {
		if len(r) < 1 || r[0] != demands[i].Src || r[len(r)-1] != demands[i].Dst {
			return false
		}
	}
	return true
}

// EvalConfig parameterizes the Enetwork evaluation of Eq. 5.
type EvalConfig struct {
	TIdle float64 // idle duration charged to each active relay
	TData float64 // link activity time per packet
	// PacketsPerDemand is the packet count each demand sends (the gadget
	// analyses use 1).
	PacketsPerDemand float64
}

// Enetwork evaluates Eq. 5 for a design: sum of idling cost tidle*c(u) over
// active nodes (sources and destinations are free, as in Section 3) plus
// tdata*w(e) per packet crossing each edge.
func (g *Graph) Enetwork(demands []Demand, d *Design, cfg EvalConfig) float64 {
	if cfg.PacketsPerDemand == 0 {
		cfg.PacketsPerDemand = 1
	}
	endpoints := make(map[int]bool, 2*len(demands))
	for _, dm := range demands {
		endpoints[dm.Src] = true
		endpoints[dm.Dst] = true
	}
	// Summation order is fixed (ascending node id) so the float64 result is
	// bit-identical across runs: the opt subsystem's fixed-seed trajectories
	// compare these values against each other and against golden digests.
	// Ledger.Energy reproduces this exact accumulation order.
	var total float64
	for _, v := range d.Active() {
		if endpoints[v] {
			continue // c(si) = c(di) = 0
		}
		total += cfg.TIdle * g.nodeWeight[v]
	}
	for i, r := range d.Routes {
		if r == nil {
			continue
		}
		pkts := cfg.PacketsPerDemand * demands[i].rate()
		for j := 0; j+1 < len(r); j++ {
			w, ok := g.EdgeWeight(r[j], r[j+1])
			if !ok {
				panic(fmt.Sprintf("core: route %d uses missing edge (%d,%d)", i, r[j], r[j+1]))
			}
			total += pkts * cfg.TData * w
		}
	}
	return total
}
