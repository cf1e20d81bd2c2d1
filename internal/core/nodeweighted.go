package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// This file implements the node-weighted Steiner tree heuristic in the
// style of Klein-Ravi [18], which Section 3 cites for the Omega(log n)
// hardness of node-weighted network design. The algorithm greedily merges
// terminal components through "spiders": a center node plus node-weighted
// shortest paths to two or more components, chosen to minimize cost per
// component connected. Klein-Ravi proves a 2*ln(k) approximation for the
// node-weighted Steiner tree; this implementation follows the same greedy
// scheme.

// compEntry is the cheapest entry point of one component from a candidate
// spider center.
type compEntry struct {
	cost float64
	node int
}

// NodeWeightedSteiner connects all terminals into one component, minimizing
// (approximately) the total node weight of the non-terminal nodes bought.
// It returns the set of nodes in the resulting tree (terminals included).
// Among spider legs of equal price the one bought follows the order the
// shortest-path kernel's heap settles equal-distance nodes in — a function
// of the arguments, but not "lowest id first".
func (g *Graph) NodeWeightedSteiner(terminals []int) (map[int]bool, error) {
	if len(terminals) == 0 {
		return map[int]bool{}, nil
	}

	comp := make([]int, g.n) // component id per node, -1 if outside
	for i := range comp {
		comp[i] = -1
	}
	inTree := make([]bool, g.n)
	nComp := 0
	for _, t := range terminals {
		g.check(t)
		if inTree[t] {
			continue
		}
		comp[t] = nComp
		inTree[t] = true
		nComp++
	}

	// price of buying node v: its weight unless already bought. Edges are
	// free — only node prices matter in the node-weighted model.
	price := func(v int) float64 {
		if inTree[v] {
			return 0
		}
		return g.nodeWeight[v]
	}
	freeEdge := func(_, _ int, _ float64) float64 { return 0 }
	var sp SPScratch // one Dijkstra scratch across all rounds and centers
	// best[c] is component c's entry from the center at hand (node -1: out
	// of reach); merging retires ids, it never mints one past the first count.
	best := make([]compEntry, nComp)
	var entries []compEntry

	for nComp > 1 {
		bestRatio := math.Inf(1)
		bestCenter := -1
		var bestParents []int
		var bestTargets []int

		for center := 0; center < g.n; center++ {
			dist, parent := g.DijkstraInto(&sp, center, freeEdge, price)
			for c := range best {
				best[c].node = -1
			}
			for v := 0; v < g.n; v++ {
				c := comp[v]
				if c < 0 || math.IsInf(dist[v], 1) {
					continue
				}
				if best[c].node < 0 || dist[v] < best[c].cost {
					best[c] = compEntry{cost: dist[v], node: v}
				}
			}
			entries = entries[:0]
			for _, e := range best {
				if e.node >= 0 {
					entries = append(entries, e)
				}
			}
			if len(entries) < 2 {
				continue
			}
			sort.Slice(entries, func(i, j int) bool {
				if entries[i].cost != entries[j].cost {
					return entries[i].cost < entries[j].cost
				}
				return entries[i].node < entries[j].node
			})
			sum := 0.0
			for k := 1; k <= len(entries); k++ {
				sum += entries[k-1].cost
				if k < 2 {
					continue
				}
				ratio := (price(center) + sum) / float64(k)
				if ratio < bestRatio {
					bestRatio = ratio
					bestCenter = center
					bestParents = append(bestParents[:0], parent...)
					bestTargets = bestTargets[:0]
					for _, e := range entries[:k] {
						bestTargets = append(bestTargets, e.node)
					}
				}
			}
		}
		if bestCenter == -1 {
			return nil, fmt.Errorf("core: terminals not connectable")
		}

		// Buy the spider and merge the components it touches.
		newComp := comp[bestTargets[0]]
		touched := map[int]bool{}
		buy := func(v int) {
			inTree[v] = true
			if comp[v] >= 0 {
				touched[comp[v]] = true
			}
			comp[v] = newComp
		}
		buy(bestCenter)
		for _, tgt := range bestTargets {
			for v := tgt; v != -1; v = bestParents[v] {
				buy(v)
			}
		}
		for v := 0; v < g.n; v++ {
			if comp[v] >= 0 && touched[comp[v]] {
				comp[v] = newComp
			}
		}
		ids := map[int]bool{}
		for v := 0; v < g.n; v++ {
			if comp[v] >= 0 {
				ids[comp[v]] = true
			}
		}
		nComp = len(ids)
	}

	out := make(map[int]bool)
	for v := 0; v < g.n; v++ {
		if inTree[v] {
			out[v] = true
		}
	}
	return out, nil
}

// TreeNodeWeight sums the node weights of a node set in ascending node id,
// so map iteration never reaches a float64 (the node-weighted Steiner
// objective counts every bought node; terminals typically carry weight zero
// in that accounting).
func (g *Graph) TreeNodeWeight(nodes map[int]bool) float64 {
	var s float64
	for _, v := range slices.Sorted(maps.Keys(nodes)) {
		g.check(v)
		s += g.nodeWeight[v]
	}
	return s
}
