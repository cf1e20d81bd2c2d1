// Package bound is the lower-bound oracle for the energy-efficient
// network design problem (paper Section 3): it certifies how far a
// heuristic or searched design can be from optimal without ever solving
// the NP-hard problem exactly.
//
// Two tiers hide behind one interface:
//
//   - Combinatorial: a fast relaxation that is always available. The
//     communication part of Enetwork is bounded below by each demand's
//     shortest-path energy ignoring sharing; the idling part by the
//     cheapest relay chain any single demand forces awake. O(k·E log V)
//     for k demands.
//   - Lagrangian: a subgradient ascent on the relaxation that dualizes
//     the design coupling ("a route may cross relay v only if v is kept
//     awake") with multipliers λ[i][v] ≥ 0. For fixed λ the problem
//     decomposes: per-demand shortest paths under reduced costs plus an
//     independent open/close decision per relay, so every iterate L(λ)
//     is itself a valid lower bound. The reported value is the best
//     iterate seen — monotone over the trace by construction — and is
//     floored at the combinatorial tier, so Lagrangian ≥ Combinatorial
//     on every instance.
//
// Both tiers are deterministic: a fixed Options.Seed reproduces the
// subgradient trace bit for bit (Result.Fingerprint pins it). The gap a
// caller derives with Gap is therefore as reproducible as the searches
// it certifies.
package bound

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"eend/internal/core"
	"eend/internal/exec"
)

// Tier selects how much work the oracle may spend on the bound.
type Tier int

const (
	// Combinatorial is the O(k·E log V) shortest-path relaxation.
	Combinatorial Tier = iota + 1
	// Lagrangian is the subgradient dual ascent, floored at the
	// combinatorial tier.
	Lagrangian
)

// String returns the tier's short name (the one ParseTier accepts).
func (t Tier) String() string {
	switch t {
	case Combinatorial:
		return "comb"
	case Lagrangian:
		return "lagrange"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// ParseTier resolves a tier short name.
func ParseTier(name string) (Tier, error) {
	switch name {
	case "comb":
		return Combinatorial, nil
	case "lagrange":
		return Lagrangian, nil
	default:
		return 0, fmt.Errorf("bound: unknown tier %q (want %v)", name, Tiers())
	}
}

// Tiers lists the tier names ParseTier accepts.
func Tiers() []string { return []string{"comb", "lagrange"} }

// Options tunes a bound computation.
type Options struct {
	// Tier selects the oracle (default Lagrangian).
	Tier Tier
	// Eval weighs idle versus traffic time exactly like the objective the
	// bound certifies; it must match the Enetwork evaluation of the search.
	Eval core.EvalConfig
	// Seed drives the deterministic step-schedule jitter of the Lagrangian
	// tier; a fixed seed reproduces the trace bit for bit (default 1).
	Seed uint64
	// Iterations bounds the subgradient iterations (default 150).
	Iterations int
	// Trace records every Lagrangian iterate in Result.Trace.
	Trace bool
}

// TracePoint is one subgradient iteration's outcome. Iteration 0 is the
// combinatorial floor the ascent starts from.
type TracePoint struct {
	Iter  int     `json:"iter"`
	Value float64 `json:"value"` // L(λ) at this iterate
	Best  float64 `json:"best"`  // best bound so far: monotone nondecreasing
	Step  float64 `json:"step"`  // step size applied after this iterate
}

// Result is a computed lower bound.
type Result struct {
	// Tier names the oracle that produced Value ("comb", "lagrange").
	Tier string `json:"tier"`
	// Value is the certified lower bound on Enetwork over all feasible
	// designs: optimal ≥ Value always.
	Value float64 `json:"value"`
	// Combinatorial is the tier-1 floor (equal to Value for tier comb).
	Combinatorial float64 `json:"combinatorial"`
	// CommFloor and IdleFloor decompose the combinatorial bound into its
	// shortest-path communication sum and forced-relay idling floor.
	CommFloor float64 `json:"comm_floor"`
	IdleFloor float64 `json:"idle_floor"`
	// UpperBound is the internal surrogate (best Section 4 heuristic) the
	// subgradient step sizing targeted; it is NOT part of the certificate.
	UpperBound float64 `json:"upper_bound,omitempty"`
	// Iterations counts subgradient iterations performed (0 for comb).
	Iterations int `json:"iterations"`
	// Trace holds the per-iterate bound values when Options.Trace was set.
	Trace []TracePoint `json:"trace,omitempty"`
}

// traceVersion tags the canonical trace encoding Fingerprint hashes.
const traceVersion = "eend.boundtrace/1"

// Fingerprint returns the hex SHA-256 of the result's canonical encoding:
// tier, bound values and the full trace with float64 bit patterns rendered
// exactly. Two runs with the same instance, options and seed must
// fingerprint identically — the determinism contract's entry for bounds.
func (r *Result) Fingerprint() string {
	var w strings.Builder
	w.WriteString(traceVersion)
	w.WriteByte('\n')
	fmt.Fprintf(&w, "tier=%s value=%016x comb=%016x iters=%d\n",
		r.Tier, math.Float64bits(r.Value), math.Float64bits(r.Combinatorial), r.Iterations)
	for _, p := range r.Trace {
		fmt.Fprintf(&w, "%d %016x %016x %016x\n",
			p.Iter, math.Float64bits(p.Value), math.Float64bits(p.Best), math.Float64bits(p.Step))
	}
	sum := sha256.Sum256([]byte(w.String()))
	return hex.EncodeToString(sum[:])
}

// certifyTol is the relative float noise under which a bound meets its
// target: the subgradient ascent stops there, and Gap certifies there, so
// the stop rule and the certificate agree (ARCHITECTURE, "Bounds").
const certifyTol = 1e-12

// Gap reports the relative optimality gap (best − bnd)/bnd of a search
// outcome against a lower bound, with the division hazards resolved:
//
//   - best − bnd ≤ certifyTol·max(1, |bnd|): the bound certifies
//     optimality — gap 0, certified.
//   - bnd > 0:    the usual ratio, defined but not certified.
//   - bnd ≤ 0 with best above it (or any NaN input): the ratio is
//     meaningless — defined is false and callers must render "unknown"
//     instead of leaking NaN/Inf into JSON or CSV.
func Gap(best, bnd float64) (gap float64, certified, defined bool) {
	if math.IsNaN(best) || math.IsNaN(bnd) {
		return 0, false, false
	}
	switch {
	case best <= bnd || best-bnd <= certifyTol*math.Max(1, math.Abs(bnd)):
		return 0, true, true
	case bnd > 0:
		return (best - bnd) / bnd, false, true
	default:
		return 0, false, false
	}
}

// GapOf renders Gap(best, r.Value) the way results carry it: the gap as a
// pointer that is nil when the ratio is undefined, and whether the bound
// certifies best optimal. A nil result — no oracle ran — certifies nothing.
func (r *Result) GapOf(best float64) (gap *float64, certified bool) {
	if r == nil {
		return nil, false
	}
	g, certified, defined := Gap(best, r.Value)
	if !defined {
		return nil, false
	}
	return &g, certified
}

// Compute returns a certified lower bound on Enetwork(design) over every
// feasible design for the instance. An unroutable demand is an error: no
// feasible design exists, so there is nothing to bound. So is an Eval
// weight that is negative, NaN or infinite.
//
// The per-demand shortest paths of each pass run on the process-wide
// execution scheduler, one share per processor, and merge in demand order:
// the Result is bit-identical at any GOMAXPROCS. A panic in one of them (a
// negative edge weight) reaches the caller as it would from a plain loop.
func Compute(g *core.Graph, demands []core.Demand, o Options) (*Result, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("bound: no demands")
	}
	if o.Tier == 0 {
		o.Tier = Lagrangian
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Iterations <= 0 {
		o.Iterations = 150
	}
	if o.Eval.PacketsPerDemand == 0 {
		o.Eval.PacketsPerDemand = 1
	}
	// A negative weight prices an edge or a relay below zero: Dijkstra
	// panics on it, or the relaxation stops being a bound. NaN makes every
	// demand look unroutable.
	if e := o.Eval; !priced(e.TIdle) || !priced(e.TData) || !priced(e.PacketsPerDemand) {
		return nil, fmt.Errorf("bound: TIdle %v, TData %v and PacketsPerDemand %v must be finite and non-negative",
			e.TIdle, e.TData, e.PacketsPerDemand)
	}

	inst, err := newInstance(g, demands, o.Eval)
	if err != nil {
		return nil, err
	}
	comm, idle, err := inst.combinatorial()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Tier:          o.Tier.String(),
		Value:         comm + idle,
		Combinatorial: comm + idle,
		CommFloor:     comm,
		IdleFloor:     idle,
	}
	if o.Tier == Combinatorial {
		return res, nil
	}
	inst.subgradient(res, o)
	return res, nil
}

// priced reports whether an evaluation weight can price a path: finite and
// non-negative (NaN is neither).
func priced(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// instance precomputes the per-demand packet weights, the global endpoint
// set and the relay candidates (non-endpoint nodes with a positive idling
// price — only they need multipliers).
type instance struct {
	g       *core.Graph
	demands []core.Demand
	eval    core.EvalConfig
	pkts    []float64 // packets crossing each edge of demand i's route
	endp    []bool    // node is some demand's endpoint (idles for free)
	relays  []int     // ascending non-endpoint nodes with TIdle·c(v) > 0
	relayIx []int     // node -> index in relays, or -1
	idleW   []float64 // TIdle·c(v) per relay index

	// cost and idleCost are a pass's per-demand results: slot i is written
	// by the worker that owns demand i and read by the caller after the
	// join, in demand order.
	cost, idleCost []float64
	// workers own the shortest-path scratch, one each for the whole
	// Compute; demand i belongs to workers[i mod len(workers)]. items fan a
	// pass out, one per worker (nil with one worker: the pass runs inline),
	// and pass is the per-demand step they run.
	workers []spWorker
	items   []exec.Item
	pass    func(w *spWorker, i int)
}

// spWorker is one worker's Dijkstra scratch and path buffer — an SPScratch
// never serves two searches at once — and the first panic its share of a
// pass raised.
type spWorker struct {
	sp       core.SPScratch
	path     []int
	panicAt  int // demand index, or -1
	panicVal any
}

func newInstance(g *core.Graph, demands []core.Demand, eval core.EvalConfig) (*instance, error) {
	n, k := g.Len(), len(demands)
	inst := &instance{
		g: g, demands: demands, eval: eval,
		pkts:     make([]float64, k),
		endp:     make([]bool, n),
		relayIx:  make([]int, n),
		cost:     make([]float64, k),
		idleCost: make([]float64, k),
		workers:  make([]spWorker, min(exec.Workers(0), k)),
	}
	for i, dm := range demands {
		if dm.Src < 0 || dm.Src >= n || dm.Dst < 0 || dm.Dst >= n {
			return nil, fmt.Errorf("bound: demand %d endpoints (%d,%d) out of range [0,%d)", i, dm.Src, dm.Dst, n)
		}
		inst.endp[dm.Src] = true
		inst.endp[dm.Dst] = true
		p := eval.PacketsPerDemand
		if dm.Rate > 0 {
			p *= dm.Rate
		}
		inst.pkts[i] = p
	}
	for v := 0; v < n; v++ {
		inst.relayIx[v] = -1
		if !inst.endp[v] && eval.TIdle*g.NodeWeight(v) > 0 {
			inst.relayIx[v] = len(inst.relays)
			inst.relays = append(inst.relays, v)
			inst.idleW = append(inst.idleW, eval.TIdle*g.NodeWeight(v))
		}
	}
	if len(inst.workers) > 1 {
		inst.items = make([]exec.Item, len(inst.workers))
		for w := range inst.items {
			// Nested: a bound under way is started work, so its shares
			// dispatch ahead of any queued top-level batch.
			inst.items[w] = exec.Item{Index: w, Nested: true, Do: func(context.Context) (any, error) {
				inst.share(w)
				return nil, nil
			}}
		}
	}
	return inst, nil
}

// forEachDemand runs pass(w, i) for every demand i, on the scratch of the
// worker that owns it: inline with one worker, else one Gather of the
// per-worker items on exec.Default. A pass writes demand i's slots only,
// so folding them in demand order after the join gives the plain loop's
// floats at any worker count. exec would turn a panicking item into an
// error; each share recovers instead, and the panic of the earliest demand
// is raised again here, on the caller's goroutine, with its value.
func (inst *instance) forEachDemand(pass func(w *spWorker, i int)) {
	if inst.items == nil {
		for i := range inst.demands {
			pass(&inst.workers[0], i)
		}
		return
	}
	inst.pass = pass
	exec.Default().Gather(context.TODO(), inst.items)
	inst.pass = nil
	var first *spWorker
	for w := range inst.workers {
		if s := &inst.workers[w]; s.panicAt >= 0 && (first == nil || s.panicAt < first.panicAt) {
			first = s
		}
	}
	if first != nil {
		panic(first.panicVal)
	}
}

// share runs worker w's demands w, w+W, w+2W, … in order, stopping at the
// first that panics.
func (inst *instance) share(w int) {
	s := &inst.workers[w]
	s.panicAt, s.panicVal = -1, nil
	i := w
	defer func() {
		if r := recover(); r != nil {
			s.panicAt, s.panicVal = i, r
		}
	}()
	for ; i < len(inst.demands); i += len(inst.workers) {
		inst.pass(s, i)
	}
}

// commScale is demand i's edge cost per unit of weight: the energy its
// packets spend crossing edge e is commScale(i)·w(e). The passes price it
// through ScaledPathInto, which guides the run toward the destination.
func (inst *instance) commScale(i int) float64 { return inst.pkts[i] * inst.eval.TData }

// combinatorial computes the tier-1 floors. The communication floor sums,
// per demand, the cheapest-energy path as if relays were free — any route
// the optimum picks costs at least that much to cross. The idle floor is
// the cheapest awake-relay chain any single demand forces: the optimum's
// active set contains a path for every demand, so its idling bill is at
// least the largest per-demand minimum. The two floors bound disjoint
// terms of Enetwork, so their sum is a valid bound.
func (inst *instance) combinatorial() (comm, idle float64, err error) {
	idleCost := func(v int) float64 {
		if j := inst.relayIx[v]; j >= 0 {
			return inst.idleW[j]
		}
		return 0
	}
	zeroEdge := func(_, _ int, _ float64) float64 { return 0 }
	inst.forEachDemand(func(s *spWorker, i int) {
		dm := inst.demands[i]
		s.path, inst.cost[i] = inst.g.ScaledPathInto(&s.sp, dm.Src, dm.Dst, inst.commScale(i), nil, s.path)
		s.path, inst.idleCost[i] = inst.g.ShortestPathInto(&s.sp, dm.Src, dm.Dst, zeroEdge, idleCost, s.path)
	})
	for i, dm := range inst.demands {
		// +Inf is the cost of an unreachable destination and of nothing else.
		if math.IsInf(inst.cost[i], 1) {
			return 0, 0, fmt.Errorf("bound: demand %d (%d->%d) is unroutable", i, dm.Src, dm.Dst)
		}
		comm += inst.cost[i]
		if c := inst.idleCost[i]; c > idle {
			idle = c
		}
	}
	return comm, idle, nil
}

// evaluate computes L(λ) = Σ_i SP_i(comm + λ_i) + Σ_v min(0, idleW_v − Σ_i λ_iv)
// and fills x (demand i's path crosses relay j) and open (the relay
// subproblem keeps j awake). The relay terms are summed sorted by value and
// the demand terms in demand order — both label-independent orders — so the
// value is bit-identical on every run AND under any node relabeling of the
// input graph (given the relabeled instance presents its demands in the
// same order).
func (inst *instance) evaluate(lam [][]float64, sumLam []float64, x [][]bool, open []bool, terms []float64) float64 {
	terms = terms[:0]
	for j := range inst.relays {
		open[j] = inst.idleW[j]-sumLam[j] < 0
		if open[j] {
			terms = append(terms, inst.idleW[j]-sumLam[j])
		}
	}
	sort.Float64s(terms)
	var total float64
	for _, t := range terms {
		total += t
	}
	inst.forEachDemand(func(s *spWorker, i int) {
		dm, li := inst.demands[i], lam[i]
		nodeCost := func(v int) float64 {
			if j := inst.relayIx[v]; j >= 0 {
				return li[j]
			}
			return 0
		}
		s.path, inst.cost[i] = inst.g.ScaledPathInto(&s.sp, dm.Src, dm.Dst, inst.commScale(i), nodeCost, s.path)
		xi := x[i]
		clear(xi)
		for _, v := range s.path {
			if j := inst.relayIx[v]; j >= 0 {
				xi[j] = true
			}
		}
	})
	for _, c := range inst.cost {
		total += c
	}
	return total
}

// stallWindow is how many iterations without beating its own best iterate
// the ascent tolerates before halving the step scale (Held-Karp style) —
// not res.Value, whose combinatorial floor L(0) may lie far below.
const stallWindow = 10

// subgradient runs the Lagrangian ascent and folds the best iterate into
// res. Every L(λ) is a valid bound, so the reported value is the running
// maximum, floored at the combinatorial tier; the trace is therefore
// monotone in Best by construction. The step schedule is deterministic for
// a fixed seed: Polyak steps α·(UB − L)/‖g‖² against the best Section 4
// heuristic as surrogate UB, with a seeded multiplicative jitter that
// decorrelates the trajectory across seeds without ever threatening
// validity (any non-negative multiplier vector yields a true bound).
func (inst *instance) subgradient(res *Result, o Options) {
	res.UpperBound = inst.surrogateUB()
	if len(inst.relays) == 0 {
		// No relay has an idling price: the combinatorial communication
		// floor is already the exact relaxation, nothing to ascend.
		if o.Trace {
			res.Trace = append(res.Trace, TracePoint{Iter: 0, Value: res.Combinatorial, Best: res.Value})
		}
		return
	}

	lam := make([][]float64, len(inst.demands))
	x := make([][]bool, len(inst.demands))
	for i := range lam {
		lam[i] = make([]float64, len(inst.relays))
		x[i] = make([]bool, len(inst.relays))
	}
	sumLam := make([]float64, len(inst.relays))
	open := make([]bool, len(inst.relays))
	terms := make([]float64, 0, len(inst.relays))
	rng := rand.New(rand.NewPCG(o.Seed, 0x0b0d))

	if o.Trace {
		res.Trace = append(res.Trace, TracePoint{Iter: 0, Value: res.Combinatorial, Best: res.Value})
	}
	alpha := 2.0
	own, stalled := math.Inf(-1), 0
	for it := 1; it <= o.Iterations; it++ {
		l := inst.evaluate(lam, sumLam, x, open, terms)
		res.Iterations = it
		res.Value = max(res.Value, l)
		if l > own {
			own = l
			stalled = 0
		} else if stalled++; stalled >= stallWindow {
			alpha /= 2
			stalled = 0
		}

		// The ascent has met its target: L(λ) certifies the surrogate UB
		// as optimal (up to float noise), so further steps cannot help.
		gapToUB := res.UpperBound - l
		if gapToUB <= certifyTol*math.Max(1, math.Abs(res.UpperBound)) {
			if o.Trace {
				res.Trace = append(res.Trace, TracePoint{Iter: it, Value: l, Best: res.Value})
			}
			return
		}
		var normSq float64
		for i := range x {
			for j := range x[i] {
				g := subgrad(x[i][j], open[j])
				normSq += g * g
			}
		}
		if normSq == 0 {
			// x agrees with open everywhere: λ is a maximizer.
			if o.Trace {
				res.Trace = append(res.Trace, TracePoint{Iter: it, Value: l, Best: res.Value})
			}
			return
		}
		step := alpha * gapToUB / normSq * (0.9 + 0.2*rng.Float64())
		for i := range lam {
			for j := range lam[i] {
				nl := lam[i][j] + step*subgrad(x[i][j], open[j])
				if nl < 0 {
					nl = 0
				}
				sumLam[j] += nl - lam[i][j]
				lam[i][j] = nl
			}
		}
		if o.Trace {
			res.Trace = append(res.Trace, TracePoint{Iter: it, Value: l, Best: res.Value, Step: step})
		}
	}
}

// subgrad is the supergradient coordinate for (demand uses relay, relay open).
func subgrad(used, open bool) float64 {
	switch {
	case used && !open:
		return 1
	case open && !used:
		return -1
	default:
		return 0
	}
}

// surrogateUB prices the best Section 4 heuristic design — a cheap,
// deterministic upper bound that only steers step sizes, never validity.
// When the heuristics fail (they cannot on a routable instance), a crude
// multiple of the combinatorial floor keeps the schedule finite.
func (inst *instance) surrogateUB() float64 {
	best := math.Inf(1)
	if _, e, err := inst.g.BestApproach(inst.demands, inst.eval); err == nil {
		best = min(e[core.CommFirst], e[core.Joint], e[core.IdleFirst])
	}
	if math.IsInf(best, 1) {
		comm, idle, err := inst.combinatorial()
		if err != nil {
			return 1
		}
		return 10*(comm+idle) + 1
	}
	return best
}
