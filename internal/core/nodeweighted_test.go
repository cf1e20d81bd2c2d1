package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// bruteNodeWeightedSteiner finds the optimal node-weighted Steiner tree by
// enumerating subsets of non-terminal nodes and checking terminal
// connectivity in the induced subgraph. Exponential; for tests only.
func bruteNodeWeightedSteiner(g *Graph, terminals []int) (float64, bool) {
	isTerminal := make([]bool, g.n)
	for _, t := range terminals {
		isTerminal[t] = true
	}
	var others []int
	for v := 0; v < g.n; v++ {
		if !isTerminal[v] {
			others = append(others, v)
		}
	}
	best := math.Inf(1)
	found := false
	allowed := make([]bool, g.n)
	for mask := 0; mask < 1<<len(others); mask++ {
		for v := range allowed {
			allowed[v] = isTerminal[v]
		}
		cost := 0.0
		for i, v := range others {
			if mask&(1<<i) != 0 {
				allowed[v] = true
				cost += g.nodeWeight[v]
			}
		}
		if cost >= best {
			continue
		}
		if terminalsConnected(g, terminals, allowed) {
			best = cost
			found = true
		}
	}
	return best, found
}

// terminalsConnected reports whether all terminals are in one component of
// the subgraph induced by allowed nodes.
func terminalsConnected(g *Graph, terminals []int, allowed []bool) bool {
	if len(terminals) == 0 {
		return true
	}
	stack := []int{terminals[0]}
	seen := make([]bool, g.n)
	seen[terminals[0]] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if allowed[e.to] && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	for _, t := range terminals {
		if !seen[t] {
			return false
		}
	}
	return true
}

// nonTerminalWeight computes the node-weighted objective of a tree: the
// weight of the bought non-terminal nodes.
func nonTerminalWeight(g *Graph, tree map[int]bool, terminals []int) float64 {
	isTerminal := make(map[int]bool, len(terminals))
	for _, t := range terminals {
		isTerminal[t] = true
	}
	var s float64
	for v := range tree {
		if !isTerminal[v] {
			s += g.nodeWeight[v]
		}
	}
	return s
}

func TestNodeWeightedSteinerStar(t *testing.T) {
	// Terminals 1..4 all adjacent to hub 0 (weight 3) and pairwise
	// connected through expensive dedicated relays (weight 10 each).
	g := NewGraph(9)
	g.SetNodeWeight(0, 3)
	for p := 0; p < 4; p++ {
		term := 1 + p
		relay := 5 + p
		g.SetNodeWeight(relay, 10)
		g.AddEdge(term, 0, 1)
		g.AddEdge(term, relay, 1)
		g.AddEdge(relay, 1+(p+1)%4, 1)
	}
	terminals := []int{1, 2, 3, 4}
	tree, err := g.NodeWeightedSteiner(terminals)
	if err != nil {
		t.Fatal(err)
	}
	if !tree[0] {
		t.Fatalf("tree %v should buy the cheap hub 0", tree)
	}
	if got := nonTerminalWeight(g, tree, terminals); got != 3 {
		t.Fatalf("bought weight = %v, want 3 (hub only)", got)
	}
}

func TestNodeWeightedSteinerSingleTerminal(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	tree, err := g.NodeWeightedSteiner([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 1 || !tree[1] {
		t.Fatalf("tree = %v, want just the terminal", tree)
	}
}

func TestNodeWeightedSteinerEmpty(t *testing.T) {
	g := NewGraph(3)
	tree, err := g.NodeWeightedSteiner(nil)
	if err != nil || len(tree) != 0 {
		t.Fatalf("tree=%v err=%v", tree, err)
	}
}

func TestNodeWeightedSteinerDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, err := g.NodeWeightedSteiner([]int{0, 3}); err == nil {
		t.Fatal("disconnected terminals must error")
	}
}

func TestNodeWeightedSteinerWithinLogFactorOfOptimal(t *testing.T) {
	// Klein-Ravi guarantees 2 ln k; verify the bound (with slack) against
	// brute force on random small graphs.
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.IntN(4)
		g := NewGraph(n)
		for v := 0; v < n; v++ {
			g.SetNodeWeight(v, 0.5+rng.Float64()*5)
			g.AddEdge(v, (v+1)%n, 1)
		}
		for c := 0; c < n; c++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		terminals := []int{0, n / 3, 2 * n / 3}

		opt, ok := bruteNodeWeightedSteiner(g, terminals)
		if !ok {
			t.Fatalf("trial %d: brute force found no tree", trial)
		}
		tree, err := g.NodeWeightedSteiner(terminals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !terminalsConnectedSet(g, terminals, tree) {
			t.Fatalf("trial %d: heuristic tree does not connect terminals", trial)
		}
		got := nonTerminalWeight(g, tree, terminals)
		bound := 2*math.Log(float64(len(terminals)))*opt + 1e-9
		if opt > 0 && got > bound+opt { // generous slack over the formal bound
			t.Fatalf("trial %d: heuristic %v vs optimal %v exceeds the bound", trial, got, opt)
		}
		if got < opt-1e-9 {
			t.Fatalf("trial %d: heuristic %v beat brute force %v (brute force broken?)", trial, got, opt)
		}
	}
}

func terminalsConnectedSet(g *Graph, terminals []int, tree map[int]bool) bool {
	allowed := make([]bool, g.n)
	for v := range tree {
		allowed[v] = true
	}
	return terminalsConnected(g, terminals, allowed)
}

func TestTreeNodeWeight(t *testing.T) {
	g := NewGraph(4)
	g.SetNodeWeight(0, 1)
	g.SetNodeWeight(1, 2)
	g.SetNodeWeight(2, 4)
	if got := g.TreeNodeWeight(map[int]bool{0: true, 2: true}); got != 5 {
		t.Fatalf("TreeNodeWeight = %v, want 5", got)
	}
	if got := g.TreeNodeWeight(nil); got != 0 {
		t.Fatalf("empty set weight = %v", got)
	}
}

// TestTreeNodeWeightIsOrderIndependent: the weight of a node set is a
// function of the set, not of the order a map hands its members out in —
// float addition does not associate, so the sum runs in ascending node id.
func TestTreeNodeWeightIsOrderIndependent(t *testing.T) {
	weights := []float64{0.1, 0.2, 0.3, 0.7, 1e-3, 0.9, 1e-7, 0.6, 0.4, 0.05, 0.011, 0.13}
	g := NewGraph(len(weights))
	nodes := make(map[int]bool, len(weights))
	var want float64
	for v, w := range weights {
		g.SetNodeWeight(v, w)
		nodes[v] = true
		want += w
	}
	for call := 0; call < 200; call++ {
		if got := g.TreeNodeWeight(nodes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TreeNodeWeight = %x, want the ascending-id sum %x", call, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
