package opt

import (
	"fmt"
	"time"

	"eend/opt/bound"
)

// The lower-bound vocabulary, shared (by type identity) with eend/opt/bound.
type (
	// BoundTier selects the lower-bound oracle.
	BoundTier = bound.Tier
	// BoundOptions tunes a bound computation.
	BoundOptions = bound.Options
	// BoundResult is a certified lower bound with its convergence trace.
	BoundResult = bound.Result
)

// The oracle tiers.
const (
	// BoundComb is the fast combinatorial shortest-path relaxation.
	BoundComb = bound.Combinatorial
	// BoundLagrange is the subgradient Lagrangian relaxation (floored at
	// the combinatorial tier, so it never reports a weaker bound).
	BoundLagrange = bound.Lagrangian
)

// BoundTiers lists the tier names Setup accepts besides "none".
func BoundTiers() []string { return bound.Tiers() }

// Bound runs the oracle on the problem's own instance, defaulting the
// evaluation weights to the problem's (so the bound certifies exactly the
// objective the search minimizes).
func (p *Problem) Bound(o BoundOptions) (*BoundResult, error) {
	if o.Eval == (EvalConfig{}) {
		o.Eval = p.Eval
	}
	t0 := time.Now()
	r, err := bound.Compute(p.Graph, p.Demands, o)
	boundSeconds.ObserveSince(t0)
	return r, err
}

// Setup resolves a search's objective and bound-tier names into the
// objective to minimize and its certificate, for every front end: objective
// "" or "analytic" is Analytic, "sim" is Simulated(cfg); tier "" is the
// Lagrangian oracle and "none" runs none. A bound certifies Eq. 5 only, so
// it is computed (with seed) for the analytic objective alone; a sim search
// gets a nil result, which ApplyBound and GapOf render as no bound and no
// gap. A bad tier name is an error for every objective.
func (p *Problem) Setup(objective, tier string, seed uint64, cfg SimConfig) (Objective, *BoundResult, error) {
	t, err := BoundLagrange, error(nil)
	if tier == "none" {
		t = 0
	} else if tier != "" {
		t, err = bound.ParseTier(tier)
	}
	switch {
	case err != nil:
		return nil, nil, err
	case objective == "sim":
		sim, err := p.Simulated(cfg)
		if err != nil {
			return nil, nil, err
		}
		return sim, nil, nil
	case objective != "" && objective != "analytic":
		return nil, nil, fmt.Errorf("unknown objective %q (want analytic|sim)", objective)
	case t == 0:
		return p.Analytic(), nil, nil
	}
	br, err := p.Bound(BoundOptions{Tier: t, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return p.Analytic(), br, nil
}

// BoundGap reports the relative optimality gap of a best-found value
// against a lower bound — bound.Gap re-exported on the opt surface for
// callers that want the three raw values (bench's ledger); results carry
// the pair BoundResult.GapOf renders from them.
func BoundGap(best, bnd float64) (gap float64, certified, defined bool) {
	return bound.Gap(best, bnd)
}

// ApplyBound folds a computed lower bound into the search result: the
// bound value, its tier, and the optimality gap of BestEnergy against it as
// BoundResult.GapOf renders it (Gap nil when the ratio is undefined, so JSON
// and CSV never leak NaN or Inf). p.Bound then ApplyBound is how every
// caller certifies a result; a nil bound (the oracle was disabled) leaves
// the result as it is. The fleet-wide eend_opt_gap gauge tracks the last
// applied gap.
func (r *Result) ApplyBound(br *BoundResult) {
	if br == nil {
		return
	}
	v := br.Value
	r.Bound, r.BoundTier = &v, br.Tier
	if r.Gap, r.GapCertified = br.GapOf(r.BestEnergy); r.Gap != nil {
		lastGap.set(*r.Gap)
	}
}
