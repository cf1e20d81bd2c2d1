package core

import (
	"fmt"
	"math"
	"slices"
)

// Tree is a connection subtree produced by the Steiner-style algorithms.
type Tree struct {
	Root   int
	Parent []int // -1 for the root and for nodes outside the tree
	InTree []bool
	Cost   float64
}

// PathTo returns the tree path from v to the root, or nil if v is outside.
func (t *Tree) PathTo(v int) []int {
	if v < 0 || v >= len(t.InTree) || !t.InTree[v] {
		return nil
	}
	var path []int
	for u := v; u != -1; u = t.Parent[u] {
		path = append(path, u)
	}
	return path
}

// Nodes returns all tree members.
func (t *Tree) Nodes() []int {
	var out []int
	for v, in := range t.InTree {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// SteinerTree connects all terminals to root with the Takahashi-Matsuyama
// path heuristic (a 2-approximation for edge-weighted Steiner trees): grow
// the tree by repeatedly attaching the terminal with the cheapest shortest
// path to the current tree, the earliest in terminals among equally cheap
// ones. edgeCost/nodeCost generalize the metric; nodeCost is charged for
// nodes newly added to the tree, which yields the node-weighted variants the
// paper discusses.
func (g *Graph) SteinerTree(root int, terminals []int, edgeCost EdgeCostFunc, nodeCost NodeCostFunc) (*Tree, error) {
	g.check(root)
	t := &Tree{
		Root:   root,
		Parent: make([]int, g.n),
		InTree: make([]bool, g.n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	t.InTree[root] = true
	for _, v := range terminals {
		g.check(v)
	}
	pending := slices.Clone(terminals)

	// Tree-aware costs: moving inside the tree is free, so a Dijkstra from
	// the root yields shortest paths from the whole tree.
	treeEdge := func(u, v int, w float64) float64 {
		if t.InTree[u] && t.InTree[v] {
			return 0
		}
		if edgeCost != nil {
			return edgeCost(u, v, w)
		}
		return w
	}
	treeNode := func(v int) float64 {
		if t.InTree[v] || nodeCost == nil {
			return 0
		}
		return nodeCost(v)
	}

	var sp SPScratch // one Dijkstra scratch across all attachments
	for {
		// Drop what the tree already holds (the root, a repeated terminal,
		// one an attached path ran through), keeping the caller's order.
		pending = slices.DeleteFunc(pending, func(v int) bool { return t.InTree[v] })
		if len(pending) == 0 {
			return t, nil
		}
		dist, parent := g.DijkstraInto(&sp, root, treeEdge, treeNode)
		best := pending[0]
		for _, v := range pending[1:] {
			if dist[v] < dist[best] {
				best = v
			}
		}
		if math.IsInf(dist[best], 1) {
			return nil, fmt.Errorf("core: terminal unreachable from root %d", root)
		}
		t.Cost += dist[best]
		// Attach the path, stopping where it meets the tree.
		for v := best; v != -1 && !t.InTree[v]; v = parent[v] {
			t.InTree[v] = true
			t.Parent[v] = parent[v]
		}
	}
}

// MPC implements the Minimum Power Configuration algorithm of [24] for the
// single-sink case: route every source to the sink over a Steiner tree
// built with the combined metric w(e)*rate + c(v), folding node weights into
// edge weights under the paper's assumption w(e)*sum(ri) <= alpha*c(u).
// The paper's Section 3 shows why the resulting configuration can deviate
// badly in Enetwork terms; the gadgets in gadgets.go reproduce that.
func (g *Graph) MPC(sink int, sources []int, totalRate float64) (*Tree, error) {
	if totalRate <= 0 {
		totalRate = 1
	}
	return g.SteinerTree(sink, sources,
		func(_, _ int, w float64) float64 { return w * totalRate },
		func(v int) float64 { return g.nodeWeight[v] },
	)
}

// SteinerForest serves multi-commodity demands: each demand is routed with
// a cost that treats nodes already activated by earlier routes as free,
// greedily encouraging relay sharing (the behaviour that separates SF1 from
// SF2 in Figs. 5-6). It is Solve's Joint pass under the caller's edge cost
// (nil: the plain edge weight, whatever the demand's rate).
func (g *Graph) SteinerForest(demands []Demand, edgeCost EdgeCostFunc) (*Design, error) {
	if edgeCost == nil {
		edgeCost = defaultEdgeCost
	}
	return g.sequential(demands, 1, edgeCost)
}
