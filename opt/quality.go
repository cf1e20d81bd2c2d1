package opt

import (
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

// ParseBoundTier resolves a tier short name ("comb", "lagrange") — the
// vocabulary behind eendopt's -bound flag and /v1/optimize's bound field.
func ParseBoundTier(name string) (BoundTier, error) { return bound.ParseTier(name) }

// BoundTiers lists the tier names ParseBoundTier accepts.
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
