// Package opt closes the design↔simulation loop: metaheuristic search over
// the formal design problem's solution space (paper Section 3), with the
// packet-level simulator available as the objective function.
//
// The paper's Section 4 heuristics commit to a design in one greedy pass.
// This package treats a design — one route per demand — as a point in a
// search space and improves it with local moves (route swap, node
// power-down, Steiner-style rewiring toward shared relays), driven by
// greedy improvement, simulated annealing, or random-restart local search:
//
//	p, err := opt.FromScenario(sc)                   // graph + demands from a deployment
//	res, err := p.Search(ctx, p.Analytic(), opt.Options{
//		Algorithm: opt.Anneal, Seed: 1, Iterations: 600,
//	})
//
// The objective is pluggable. Analytic evaluates the closed-form Enetwork
// (Eq. 5) — cheap enough for thousands of inner iterations. Simulated runs
// the candidate through the real simulator: the design's routes are pinned
// with eend.StaticRoutes, so the scenario's fingerprint covers scenario AND
// design, and evaluations are deduplicated through the content-addressed
// result cache — an annealing run that revisits a candidate (or a re-run
// with the same seed against a warm cache) performs zero new simulator
// invocations for it.
//
// Search is deterministic: a fixed Options.Seed yields an identical
// accept/reject trajectory and final design fingerprint on every run.
package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"eend"
	"eend/internal/core"
	"eend/internal/phy"
)

// The design-problem vocabulary, shared (by type identity) with eend/design:
// values flow freely between the two packages.
type (
	// Graph is the node- and edge-weighted graph of the design problem.
	Graph = core.Graph
	// Demand is one (source, destination, rate) requirement.
	Demand = core.Demand
	// Design is a candidate solution: one route per demand.
	Design = core.Design
	// EvalConfig weighs idle versus traffic time in Enetwork (Eq. 5).
	EvalConfig = core.EvalConfig
	// Approach is one of the paper's Section 4 heuristics, used to seed the
	// search.
	Approach = core.Approach
)

// Problem is one instance of the design problem, ready to search: the
// weighted graph, the demands, and the Enetwork weighting. Scenario is the
// deployment the problem was derived from (set by FromScenario); it is what
// lets Simulated objectives rebuild the deployment with candidate routes
// pinned. A Problem built directly from a graph (design.Optimize) has no
// Scenario and supports only the Analytic objective.
type Problem struct {
	Graph   *Graph
	Demands []Demand
	Eval    EvalConfig

	// Scenario is the deployment behind Graph, or nil.
	Scenario *eend.Scenario
}

// FromScenario derives a design-problem instance from a deployment built by
// the facade. The scenario must have materialized node positions (build it
// with eend.WithTopology or eend.WithPositions); its flows become the
// demands. The derived graph prices:
//
//   - node weight c(v): the card's idle power in W — what keeping relay v
//     awake costs per second;
//   - edge weight w(u,v): the energy to push one bit across the link,
//     (Ptx(d) + Prx)/B in J/bit, with Ptx the path-loss law of the card —
//     only node pairs within radio range get an edge;
//   - EvalConfig: TIdle = TData = the scenario horizon in seconds with one
//     packet-unit per demand, so Enetwork(design) prices the design's relays
//     idling and its links carrying the demands over the horizon. That is
//     not what the deployment spends: Eq. 5 leaves out endpoint idling, the
//     passive energy of nodes outside the design, and MAC control traffic,
//     all of which the simulator's Results.Energy.Total() measures.
func FromScenario(sc *eend.Scenario) (*Problem, error) {
	pos := sc.Positions()
	if pos == nil {
		return nil, fmt.Errorf("opt: scenario placement is not materialized; build it with eend.WithTopology or eend.WithPositions")
	}
	flows := sc.Flows()
	if len(flows) == 0 {
		return nil, fmt.Errorf("opt: scenario has no flows to derive demands from")
	}
	card := sc.Card()
	bw := sc.Bandwidth()
	if bw <= 0 {
		bw = phy.DefaultBandwidth
	}
	g := core.NewGraph(len(pos))
	for v := range pos {
		g.SetNodeWeight(v, card.Idle)
	}
	for u := 0; u < len(pos); u++ {
		for v := u + 1; v < len(pos); v++ {
			d := pos[u].Dist(pos[v])
			if d > card.Range {
				continue
			}
			g.AddEdge(u, v, (card.TxPower(d)+card.Recv)/bw)
		}
	}
	demands := make([]Demand, len(flows))
	for i, f := range flows {
		demands[i] = Demand{Src: f.Src, Dst: f.Dst, Rate: f.Rate}
	}
	dur := sc.Duration().Seconds()
	return &Problem{
		Graph:    g,
		Demands:  demands,
		Eval:     EvalConfig{TIdle: dur, TData: dur, PacketsPerDemand: 1},
		Scenario: sc,
	}, nil
}

// Enetwork evaluates the closed-form objective (Eq. 5) for a design.
func (p *Problem) Enetwork(d *Design) float64 {
	return p.Graph.Enetwork(p.Demands, d, p.Eval)
}

// PinnedScenario rebuilds the problem's deployment with the design's
// routes pinned (eend.StaticRoutes over ODPM with power control — the
// design decides who idles, the simulator measures what that costs) and
// the placement and traffic frozen: positions and flows are passed
// explicitly rather than re-drawn, so a replicated evaluation
// (replicates > 1) varies only the simulator's own randomness — start
// jitter, backoff — never the problem instance the design was solved for.
// The pinned routes take part in the scenario's canonical encoding, so the
// returned scenario's Fingerprint is a content address of (deployment,
// design) — the cache key Simulated evaluations deduplicate under.
func (p *Problem) PinnedScenario(d *Design, replicates int) (*eend.Scenario, error) {
	sc := p.Scenario
	if sc == nil {
		return nil, fmt.Errorf("opt: problem has no deployment scenario; build it with opt.FromScenario")
	}
	f := sc.Field()
	opts := []eend.Option{
		eend.WithSeed(sc.Seed()),
		eend.WithField(f.Width, f.Height),
		eend.WithPositions(sc.Positions()...),
		eend.WithCard(sc.Card()),
		eend.WithDuration(sc.Duration()),
		eend.WithFlows(sc.Flows()...),
		eend.WithStack(eend.StaticRoutes(d.Routes...), eend.ODPM, eend.PowerControl()),
	}
	if bw := sc.Bandwidth(); bw > 0 {
		opts = append(opts, eend.WithBandwidth(bw))
	}
	if bj := sc.BatteryJ(); bj > 0 {
		opts = append(opts, eend.WithBattery(bj))
	}
	if replicates > 1 {
		opts = append(opts, eend.WithReplicates(replicates))
	}
	return eend.NewScenario(opts...)
}

// SolveApproach seeds a design with one of the paper's Section 4 heuristics
// (design.CommFirst, design.Joint, design.IdleFirst).
func (p *Problem) SolveApproach(a Approach) (*Design, error) {
	return p.Graph.Solve(p.Demands, a)
}

// clone deep-copies a design so moves never alias route slices.
func clone(d *Design) *Design {
	cp := &Design{Routes: make([][]int, len(d.Routes))}
	for i, r := range d.Routes {
		cp.Routes[i] = append([]int(nil), r...)
	}
	return cp
}

// designVersion tags the design canonical encoding (Fingerprint). Bump it
// if the encoding's meaning changes.
const designVersion = "eend.design/1"

// Canonical returns a design's canonical encoding: a versioned,
// line-oriented rendering of its routes. Equal designs encode equally.
func Canonical(d *Design) string {
	var w strings.Builder
	w.WriteString(designVersion)
	w.WriteByte('\n')
	for i, r := range d.Routes {
		fmt.Fprintf(&w, "route=%d:", i)
		for j, v := range r {
			if j > 0 {
				w.WriteByte('-')
			}
			fmt.Fprintf(&w, "%d", v)
		}
		w.WriteByte('\n')
	}
	return w.String()
}

// Fingerprint returns the hex SHA-256 of the design's canonical encoding —
// the content address under which determinism tests pin search outcomes.
func Fingerprint(d *Design) string {
	sum := sha256.Sum256([]byte(Canonical(d)))
	return hex.EncodeToString(sum[:])
}
