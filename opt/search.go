package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"time"

	"eend/internal/core"
	"eend/internal/exec"
	"eend/internal/obs"
)

// ValidMethod reports whether name is a SearchMethod method, so axis
// parsers can reject bad values at configuration time.
func ValidMethod(name string) bool { return slices.Contains(Methods(), name) }

// Algorithm selects the search driver.
type Algorithm int

// The search drivers.
const (
	// Greedy is deterministic-order hill climbing: best-response rewires
	// and power-downs, accepting only strict improvements, until a full
	// pass changes nothing.
	Greedy Algorithm = iota + 1
	// Anneal is simulated annealing over the move set with a geometric
	// cooling schedule and Metropolis acceptance.
	Anneal
	// Restart is random-restart local search: Greedy from several
	// independently seeded initial designs, keeping the best outcome.
	Restart
)

// algorithmNames holds the drivers' short names, indexed by Algorithm.
var algorithmNames = [...]string{Greedy: "greedy", Anneal: "anneal", Restart: "restart"}

// String returns the algorithm's short name (the one ParseAlgorithm accepts).
func (a Algorithm) String() string {
	if a < Greedy || a > Restart {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmNames[a]
}

// Methods lists the method names SearchMethod accepts: the paper's
// Section 4 heuristics applied directly, then the search algorithms.
func Methods() []string {
	return []string{"comm-first", "joint", "idle-first", "greedy", "anneal", "restart"}
}

// approachByName maps Section 4 heuristic names to their Approach.
var approachByName = map[string]Approach{
	"comm-first": core.CommFirst,
	"joint":      core.Joint,
	"idle-first": core.IdleFirst,
}

// SearchMethod runs the named method under the objective: a search
// algorithm ("greedy", "anneal", "restart"), or a Section 4 heuristic
// ("comm-first", "joint", "idle-first") as the search that starts from that
// approach's design and proposes nothing — one evaluation, with the three
// analytic baselines still recorded. Every method is one Search, so the
// sweep's heuristic axis, cmd/eendopt and the HTTP surface compare Section 4
// designs against searched ones on equal footing.
func (p *Problem) SearchMethod(ctx context.Context, method string, obj Objective, o Options) (*Result, error) {
	var err error
	if a, ok := approachByName[method]; ok {
		o.approach, o.Initial = a, nil // the approach's own design is the start
	} else if o.Algorithm, err = ParseAlgorithm(method); err != nil {
		return nil, fmt.Errorf("opt: unknown method %q (want one of %v)", method, Methods())
	}
	return p.Search(ctx, obj, o)
}

// ParseAlgorithm resolves an algorithm short name.
func ParseAlgorithm(name string) (Algorithm, error) {
	if a := slices.Index(algorithmNames[Greedy:], name); a >= 0 {
		return Greedy + Algorithm(a), nil
	}
	return 0, fmt.Errorf("opt: unknown algorithm %q (want greedy|anneal|restart)", name)
}

// Options tunes a search.
type Options struct {
	// Algorithm selects the driver (default Anneal).
	Algorithm Algorithm
	// Seed drives every random choice; a fixed seed yields an identical
	// trajectory and final design fingerprint on every run (default 1).
	Seed uint64
	// Iterations bounds objective evaluations (default DefaultIterations).
	Iterations int
	// Restarts is the number of independent starts for Restart (default 3).
	Restarts int
	// Workers bounds how many Restart starts evaluate concurrently on the
	// execution scheduler; <= 0 uses the ambient scheduler (the enclosing
	// batch's pool, or GOMAXPROCS standalone). The search trajectory and
	// final design are bit-identical at every worker count: each restart
	// derives its own RNG stream at submission time and outcomes merge in
	// restart order.
	Workers int
	// Initial seeds the search; nil starts from the best Section 4
	// heuristic (the baselines are recorded in Result.Heuristics).
	Initial *Design
	// Trace records every step in Result.Trajectory.
	Trace bool
	// OnStep, when non-nil, observes every step as it happens (live
	// best-so-far for the HTTP surface). Calls are sequential: on Search's
	// own goroutine for Greedy and Anneal; for Restart under the merge's
	// mutex, on whichever goroutine — a scheduler worker or Search's own —
	// finished the restart that completed the merged prefix.
	OnStep func(Step)
	// Tracer, when non-nil, records the search's span tree: one root
	// "search" span, an "evaluate" span per objective evaluation, and a
	// zero-duration "best" point each time the best-so-far improves (the
	// timeline a trace viewer plots). Span IDs derive from the method,
	// objective, seed and step number, so identical searches produce
	// identical trees; tracing observes timings only and never changes the
	// trajectory.
	Tracer *obs.Tracer

	// reference (internal) forces the retained full-recompute engine:
	// clone-per-proposal moves scored from scratch. The differential suite
	// sets it to pin the incremental engine bit-identical.
	reference bool
	// approach (internal, SearchMethod's) makes the search a Section 4
	// method: it starts from that approach's design and proposes nothing.
	approach Approach
}

// DefaultIterations is the evaluation budget of a search whose
// Options.Iterations is unset.
const DefaultIterations = 600

// Step is one search iteration's outcome.
type Step struct {
	Iter     int     `json:"iter"`
	Move     string  `json:"move"`
	Energy   float64 `json:"energy"` // candidate's objective value
	Best     float64 `json:"best"`   // best-so-far after this step
	Accepted bool    `json:"accepted"`
	Temp     float64 `json:"temp,omitempty"` // annealing temperature (Anneal only)
}

// Result is a completed (or cancelled: Search returns the best-so-far
// alongside ctx's error) search.
type Result struct {
	Algorithm string `json:"algorithm"`
	Objective string `json:"objective"`
	Seed      uint64 `json:"seed"`

	// Initial is the starting design's objective value; Best* describe the
	// best design found (BestEnergy <= Initial always).
	Initial         float64 `json:"initial_energy"`
	BestEnergy      float64 `json:"best_energy"`
	BestFingerprint string  `json:"best_fingerprint"`
	// Best is the winning design; BestRoutes mirrors it for JSON readers.
	Best       *Design `json:"-"`
	BestRoutes [][]int `json:"best_routes"`

	Iterations int `json:"iterations"` // objective evaluations performed
	Accepted   int `json:"accepted"`
	Rejected   int `json:"rejected"`

	// Heuristics holds the Section 4 baselines' closed-form Enetwork
	// (computed when Options.Initial is nil): the designs the search is
	// trying to beat.
	Heuristics map[string]float64 `json:"heuristics,omitempty"`

	// Bound is the certified lower bound on the objective (nil when no
	// oracle ran), BoundTier the oracle that produced it, and Gap the
	// relative optimality gap (BestEnergy − Bound)/Bound. Gap is nil when
	// the ratio is undefined (a non-positive bound below the best) — never
	// NaN or Inf. GapCertified reports the bound proves BestEnergy optimal.
	Bound        *float64 `json:"bound,omitempty"`
	BoundTier    string   `json:"bound_tier,omitempty"`
	Gap          *float64 `json:"gap,omitempty"`
	GapCertified bool     `json:"gap_certified,omitempty"`

	// Sim reports the Simulated objective's work (nil for Analytic).
	Sim *SimStats `json:"sim,omitempty"`

	// Trajectory holds every step when Options.Trace was set.
	Trajectory []Step `json:"trajectory,omitempty"`
}

// searchState carries the shared bookkeeping of the drivers. The current
// design lives inside eng; curE tracks its objective value.
type searchState struct {
	p   *Problem
	obj Objective
	o   *Options
	rng *rand.Rand
	eng engine

	curE     float64
	best     *Design
	bestE    float64
	lastBest float64 // best-so-far already reported to the tracer
	iter     int
	res      *Result
	stopped  bool // iteration budget exhausted

	tr   *obs.Tracer // nil when untraced (and always nil inside restarts)
	span obs.Span    // the root "search" span
}

// step records one candidate evaluation and its verdict.
func (st *searchState) step(move string, e float64, accepted bool, temp float64) {
	if accepted {
		stepsAccepted.Inc()
	} else {
		stepsRejected.Inc()
	}
	st.record(Step{Move: move, Energy: e, Best: st.bestE, Accepted: accepted, Temp: temp})
	if st.iter >= st.o.Iterations {
		st.stopped = true
	}
}

// record numbers a step and files it with the result, the tracer and the
// observer (the restart merge files its restarts' steps through it too).
func (st *searchState) record(s Step) {
	st.iter++
	s.Iter = st.iter
	if s.Accepted {
		st.res.Accepted++
	} else {
		st.res.Rejected++
	}
	st.markBest(s.Best, s.Move)
	if st.o.Trace {
		st.res.Trajectory = append(st.res.Trajectory, s)
	}
	if st.o.OnStep != nil {
		st.o.OnStep(s)
	}
}

// markBest emits a zero-duration "best" point on the search span when the
// best-so-far improved: the timeline a trace viewer plots.
func (st *searchState) markBest(best float64, move string) {
	if st.tr.Enabled() && best < st.lastBest {
		st.lastBest = best
		st.span.Point("best", strconv.Itoa(st.iter),
			obs.A("energy", strconv.FormatFloat(best, 'g', -1, 64)),
			obs.A("move", move), obs.AInt("iter", int64(st.iter)))
	}
}

// consider evaluates the engine's staged move and folds it into cur/best
// under the acceptance rule: accept strict improvements always, uphill
// moves with Metropolis probability when temp > 0. A rejected (or failed)
// evaluation reverts the staged move. Span creation is gated on the tracer
// so the disabled-tracer step stays allocation-free.
func (st *searchState) consider(ctx context.Context, move string, temp float64) error {
	traced := st.tr.Enabled()
	var esp obs.Span
	if traced {
		esp = st.tr.Start(st.span, "evaluate", strconv.Itoa(st.iter+1))
	}
	t0 := time.Now()
	e, err := st.eng.evaluate(ctx, st.obj)
	evalSeconds.ObserveSince(t0)
	if err != nil {
		st.eng.revert()
		if traced {
			esp.End(obs.A("error", err.Error()))
		}
		return err
	}
	if traced {
		esp.End(obs.A("move", move), obs.A("energy", strconv.FormatFloat(e, 'g', -1, 64)))
	}
	accept := e < st.curE
	if !accept && temp > 0 {
		accept = st.rng.Float64() < math.Exp(-(e-st.curE)/temp)
	}
	if accept {
		st.eng.commit()
		st.curE = e
		if e < st.bestE {
			st.best, st.bestE = st.eng.snapshot(), e
		}
		statsFor(move).accepted.Inc()
	} else {
		st.eng.revert()
		statsFor(move).rejected.Inc()
	}
	st.step(move, e, accept, temp)
	return nil
}

// propose draws one random move for the annealer and stages it on the
// engine: mostly marginal rewires, with swaps for diversification and
// power-downs for the coordinated changes single-demand moves cannot
// express. The rng consumption is identical on both engines.
func (st *searchState) propose() (string, bool) {
	switch k := st.rng.IntN(10); {
	case k < 5:
		return moveRewire, proposed(moveRewire, st.eng.tryRewire(st.rng.IntN(len(st.p.Demands))))
	case k < 8:
		return moveSwap, proposed(moveSwap, st.eng.trySwap(st.rng.IntN(len(st.p.Demands)), st.rng))
	default:
		rel := st.eng.relays()
		return movePowerDown, proposed(movePowerDown, len(rel) > 0 && st.eng.tryPowerDown(rel[st.rng.IntN(len(rel))]))
	}
}

// Search improves a design for the problem under the objective. The
// returned Result always describes the best design seen; when ctx is
// cancelled mid-search (or an evaluation fails) it is returned alongside
// the error, so long simulator-backed searches surface their partial
// progress.
func (p *Problem) Search(ctx context.Context, obj Objective, o Options) (*Result, error) {
	if len(p.Demands) == 0 {
		return nil, fmt.Errorf("opt: problem has no demands")
	}
	if o.Algorithm == 0 {
		o.Algorithm = Anneal
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	name := o.Algorithm.String()
	if o.approach != 0 {
		name = o.approach.String() // a Section 4 method goes by its approach's name
	}

	res := &Result{Algorithm: name, Objective: obj.Name(), Seed: o.Seed}
	initial := o.Initial
	if initial == nil {
		var err error
		if initial, res.Heuristics, err = p.bestHeuristic(); err == nil && o.approach != 0 {
			initial, err = p.SolveApproach(o.approach)
		}
		if err != nil {
			return nil, err
		}
	} else {
		initial = clone(initial)
	}
	initE, err := obj.Evaluate(ctx, initial)
	if err != nil {
		return nil, err
	}
	res.Initial = initE

	st := &searchState{
		p: p, obj: obj, o: &o,
		rng:  rand.New(rand.NewPCG(o.Seed, 0x0e31)),
		eng:  newEngine(p, initial, o.reference),
		curE: initE,
		best: initial, bestE: initE, lastBest: math.Inf(1),
		res: res,
		tr:  o.Tracer,
	}
	st.span = st.tr.Start(obs.Span{}, "search",
		name+"/"+obj.Name()+"/"+strconv.FormatUint(o.Seed, 10))
	st.markBest(initE, "initial")

	switch {
	case o.approach != 0:
		st.iter = 1 // the evaluation above is the whole method
	case o.Algorithm == Greedy:
		err = st.runGreedy(ctx)
	case o.Algorithm == Anneal:
		err = st.runAnneal(ctx)
	case o.Algorithm == Restart:
		err = st.runRestart(ctx)
	default:
		return nil, fmt.Errorf("opt: unknown algorithm %d", int(o.Algorithm))
	}

	res.BestEnergy = st.bestE
	res.Best = st.best
	res.BestRoutes = st.best.Routes
	res.BestFingerprint = Fingerprint(st.best)
	res.Iterations = st.iter
	if sim, ok := obj.(*Simulated); ok {
		stats := sim.Stats()
		res.Sim = &stats
	}
	searchesDone.Inc()
	if err != nil {
		st.span.End(obs.A("error", err.Error()),
			obs.AInt("iterations", int64(st.iter)))
	} else {
		st.span.End(
			obs.A("best_energy", strconv.FormatFloat(st.bestE, 'g', -1, 64)),
			obs.AInt("iterations", int64(st.iter)),
			obs.AInt("accepted", int64(res.Accepted)),
			obs.AInt("rejected", int64(res.Rejected)))
	}
	return res, err
}

// bestHeuristic seeds the search with the best Section 4 heuristic and
// records all three baselines.
func (p *Problem) bestHeuristic() (*Design, map[string]float64, error) {
	best, energies, err := p.Graph.BestApproach(p.Demands, p.Eval)
	if err != nil {
		return nil, nil, fmt.Errorf("opt: seed design: %w", err)
	}
	base := make(map[string]float64, len(energies))
	for a, e := range energies {
		base[a.String()] = e
	}
	return best, base, nil
}

// runGreedy hill-climbs: full passes of best-response rewires over a
// seed-shuffled demand order, then power-down attempts over every relay,
// until a pass accepts nothing (or the budget ends).
func (st *searchState) runGreedy(ctx context.Context) error {
	for !st.stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := st.res.Accepted
		for _, i := range st.rng.Perm(len(st.p.Demands)) {
			if st.stopped {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if !proposed(moveRewire, st.eng.tryRewire(i)) {
				continue
			}
			if err := st.consider(ctx, moveRewire, 0); err != nil {
				return err
			}
		}
		for _, v := range st.eng.relays() {
			if st.stopped {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if !proposed(movePowerDown, st.eng.tryPowerDown(v)) {
				continue
			}
			if err := st.consider(ctx, movePowerDown, 0); err != nil {
				return err
			}
		}
		if st.res.Accepted == before {
			return nil // local optimum
		}
	}
	return nil
}

// runAnneal cools geometrically — from 2% of the initial energy, so
// acceptance odds are scale-free, to 1/1000 of that on the final
// iteration — drawing random moves and accepting uphill ones with
// Metropolis probability. A streak of failed proposals (every move
// degenerate: no alternative routes, no removable relays) ends the search
// — otherwise a problem with a single frozen design would spin forever
// without ever consuming the iteration budget.
func (st *searchState) runAnneal(ctx context.Context) error {
	t := 0.02 * st.curE
	if t <= 0 {
		t = 1 // degenerate zero-energy start: any positive temperature works
	}
	cool := math.Pow(1e-3, 1/float64(st.o.Iterations))
	misses := 0
	for !st.stopped && misses < maxProposalMisses {
		if err := ctx.Err(); err != nil {
			return err
		}
		move, ok := st.propose()
		if !ok {
			misses++
			continue
		}
		misses = 0
		if err := st.consider(ctx, move, t); err != nil {
			return err
		}
		t *= cool
	}
	return nil
}

// maxProposalMisses bounds consecutive degenerate move draws before the
// annealer concludes the design space has no moves left.
const maxProposalMisses = 64

// restartStream derives the PCG stream id of restart r. Each restart owns
// an RNG stream fixed at submission time — scheduling order can never
// influence its draws — and the streams are disjoint from the annealer's
// (0x0e31), so no two drivers ever share a random sequence.
func restartStream(r int) uint64 { return 0x0e32 + uint64(r) }

// restartOutcome is one restart's independent result: its best design,
// its restart-local step log, and the error (cancellation) that cut it
// short, if any. Outcomes merge back in restart order.
type restartOutcome struct {
	best  *Design
	bestE float64
	steps []Step
	err   error
}

// runOneRestart runs a single restart to its budget: a Section 4
// heuristic over a stream-shuffled demand order seeds a greedy descent.
// The outcome always carries the best-so-far, even when ctx cancels the
// descent mid-way — partial progress is part of the Search contract.
func (p *Problem) runOneRestart(ctx context.Context, obj Objective, o Options, a Approach, stream uint64, budget int) *restartOutcome {
	out := &restartOutcome{bestE: math.Inf(1)}
	if err := ctx.Err(); err != nil {
		out.err = err
		return out
	}
	rng := rand.New(rand.NewPCG(o.Seed, stream))
	init, err := p.solveShuffled(a, rng)
	if err != nil {
		return out // an unroutable shuffled order just skips the restart
	}
	e, err := obj.Evaluate(ctx, init)
	if err != nil {
		out.err = err
		return out
	}
	// The restart records its own trajectory (Trace on) for the ordered
	// merge; OnStep stays with the merge so observer calls remain
	// sequential and in restart order.
	local := Options{Algorithm: Greedy, Seed: o.Seed, Iterations: budget, Trace: true, reference: o.reference}
	st := &searchState{
		p: p, obj: obj, o: &local, rng: rng,
		eng:  newEngine(p, init, local.reference),
		curE: e, best: init, bestE: e,
		res: new(Result), // the restart's own step log and tallies
	}
	st.step("restart", e, true, 0)
	if !st.stopped {
		if err := st.runGreedy(ctx); err != nil {
			out.err = err
		}
	}
	out.best, out.bestE, out.steps = st.best, st.bestE, st.res.Trajectory
	return out
}

// runRestart is random-restart local search on the execution scheduler:
// every restart is an independent work item (own RNG stream, own slice of
// the iteration budget, Section 4 heuristic rotated per restart) and the
// outcomes merge in restart order — steps renumbered into one trajectory
// with a globally monotone best-so-far, ties between equal-energy designs
// going to the earliest restart. The merge makes the result bit-identical
// at any Options.Workers, while the restarts themselves scale across the
// pool.
func (st *searchState) runRestart(ctx context.Context) error {
	approaches := []Approach{core.IdleFirst, core.Joint, core.CommFirst}
	o := st.o
	// Every restart costs at least one evaluation, so more restarts than
	// the iteration budget would overrun it; cap the dispatch count and
	// slice the budget with the remainder spread over the first restarts,
	// so the slices sum to exactly Iterations.
	restarts := min(o.Restarts, o.Iterations)
	budget := o.Iterations / restarts
	extra := o.Iterations % restarts

	var firstErr error
	mergeOutcome := func(oc *restartOutcome) {
		for _, s := range oc.steps {
			if st.bestE < s.Best {
				s.Best = st.bestE // best-so-far is monotone across restarts
			}
			st.record(s)
		}
		if oc.best != nil && oc.bestE < st.bestE {
			st.best, st.bestE = oc.best, oc.bestE
		}
		if firstErr == nil && oc.err != nil {
			firstErr = oc.err
		}
	}

	// Each restart files its outcome and merges the contiguous finished
	// prefix, under one mutex: OnStep observers (live HTTP progress) see a
	// restart's steps as soon as every earlier restart is in, and the
	// merged trajectory is strictly in restart order — bit-identical at
	// any worker count. Cancellation is folded into outcome.err.
	var mu sync.Mutex
	outcomes := make([]*restartOutcome, restarts)
	merged := 0
	items := make([]exec.Item, restarts)
	for r := range items {
		stream := restartStream(r)
		a := approaches[r%len(approaches)]
		slice := budget
		if r < extra {
			slice++
		}
		items[r] = exec.Item{
			Index: r,
			Do: func(ctx context.Context) (any, error) {
				oc := st.p.runOneRestart(ctx, st.obj, *o, a, stream, slice)
				mu.Lock()
				defer mu.Unlock()
				outcomes[r] = oc
				for merged < len(outcomes) && outcomes[merged] != nil {
					mergeOutcome(outcomes[merged])
					merged++
				}
				return nil, nil
			},
		}
	}
	sched := exec.From(ctx)
	if o.Workers > 0 {
		sched = exec.New(o.Workers)
	}
	// Gather is the one join: help-first when this search itself runs on a
	// scheduler worker (a batched scenario evaluating designs), a plain
	// wait elsewhere.
	results := sched.Gather(exec.With(ctx, sched), items)
	// A restart still missing was never dispatched (ctx cancelled) or
	// panicked; its Result says which. Stragglers past the gap still merge.
	for i := merged; i < len(outcomes); i++ {
		if outcomes[i] != nil {
			mergeOutcome(outcomes[i])
		} else if firstErr == nil {
			firstErr = results[i].Err
		}
	}
	return firstErr
}

// solveShuffled runs a Section 4 heuristic over a shuffled demand order and
// maps the routes back to the original demand indexing (the heuristics are
// order-dependent, which is exactly the diversity restarts want).
func (p *Problem) solveShuffled(a Approach, rng *rand.Rand) (*Design, error) {
	perm := rng.Perm(len(p.Demands))
	shuffled := make([]Demand, len(perm))
	for j, i := range perm {
		shuffled[j] = p.Demands[i]
	}
	d, err := p.Graph.Solve(shuffled, a)
	if err != nil {
		return nil, err
	}
	out := &Design{Routes: make([][]int, len(perm))}
	for j, i := range perm {
		out.Routes[i] = d.Routes[j]
	}
	return out, nil
}
