package bound

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"eend/internal/core"
)

// TestCombinatorialNotAboveLagrangian: on every instance where both tiers
// run, the Lagrangian bound dominates (it is floored at the combinatorial
// tier and only ascends from there).
func TestCombinatorialNotAboveLagrangian(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		ti := randInstance(seed)
		comb, err := Compute(ti.g, ti.demands, Options{Tier: Combinatorial, Eval: ti.eval, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: comb: %v", seed, err)
		}
		lag, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: lagrange: %v", seed, err)
		}
		if comb.Value > lag.Value {
			t.Errorf("seed %d: combinatorial %.12f above Lagrangian %.12f", seed, comb.Value, lag.Value)
		}
		if lag.Combinatorial != comb.Value {
			t.Errorf("seed %d: Lagrangian result reports combinatorial floor %.12f, tier-1 computed %.12f",
				seed, lag.Combinatorial, comb.Value)
		}
	}
}

// relabel builds the instance with node ids mapped through perm (node v
// becomes perm[v]), keeping the demand order.
func relabel(ti testInstance, perm []int) testInstance {
	n := ti.g.Len()
	g := core.NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetNodeWeight(perm[v], ti.g.NodeWeight(v))
	}
	for v := 0; v < n; v++ {
		for _, e := range ti.g.Neighbors(v) {
			if v < e.To { // each undirected edge once
				g.AddEdge(perm[v], perm[e.To], e.W)
			}
		}
	}
	demands := make([]core.Demand, len(ti.demands))
	for i, dm := range ti.demands {
		demands[i] = core.Demand{Src: perm[dm.Src], Dst: perm[dm.Dst], Rate: dm.Rate}
	}
	return testInstance{g: g, demands: demands, eval: ti.eval}
}

// TestPermutationInvariance: relabeling the nodes of the input graph must
// not change either tier's bound. The oracle sums in label-independent
// orders (demand order; relay terms sorted by value), so the values are
// bit-identical, not merely close — asserted via the trace fingerprint.
func TestPermutationInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		ti := randInstance(seed)
		rng := rand.New(rand.NewPCG(seed, 0x9e37))
		pi := relabel(ti, rng.Perm(ti.g.Len()))
		for _, tier := range []Tier{Combinatorial, Lagrangian} {
			o := Options{Tier: tier, Eval: ti.eval, Seed: seed, Trace: true}
			a, err := Compute(ti.g, ti.demands, o)
			if err != nil {
				t.Fatalf("seed %d tier %v: %v", seed, tier, err)
			}
			b, err := Compute(pi.g, pi.demands, o)
			if err != nil {
				t.Fatalf("seed %d tier %v (relabeled): %v", seed, tier, err)
			}
			if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Errorf("seed %d tier %v: bound changed under relabeling: %.17g vs %.17g",
					seed, tier, a.Value, b.Value)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Errorf("seed %d tier %v: trace fingerprint changed under relabeling", seed, tier)
			}
		}
	}
}

// TestGapEdgeCases pins the division-hazard semantics of Gap.
func TestGapEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		best, bnd float64
		gap       float64
		certified bool
		defined   bool
	}{
		{"ordinary", 115, 100, 0.15, false, true},
		{"optimal", 100, 100, 0, true, true},
		// Best and bound summed in different orders differ by float noise;
		// certification tolerates exactly the noise the ascent stops at.
		{"one ulp above", math.Nextafter(8.759930247881297, 9), 8.759930247881297, 0, true, true},
		{"1e-9 relative excess", 1 + 0x1p-30, 1, 0x1p-30, false, true},
		{"both infinite", math.Inf(1), math.Inf(1), 0, true, true},
		{"bound above best", 99, 100, 0, true, true},
		{"zero bound zero best", 0, 0, 0, true, true},
		{"zero bound positive best", 5, 0, 0, false, false},
		{"negative bound", 5, -1, 0, false, false},
		{"nan best", math.NaN(), 1, 0, false, false},
		{"nan bound", 1, math.NaN(), 0, false, false},
	}
	for _, c := range cases {
		gap, certified, defined := Gap(c.best, c.bnd)
		if gap != c.gap || certified != c.certified || defined != c.defined {
			t.Errorf("%s: Gap(%v,%v) = (%v,%v,%v), want (%v,%v,%v)",
				c.name, c.best, c.bnd, gap, certified, defined, c.gap, c.certified, c.defined)
		}
		if math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Errorf("%s: Gap leaked %v", c.name, gap)
		}
	}
}

// TestGapCertifiesExactlyAtOptimality: gap is 0 with certified=true exactly
// when the bound proves the design optimal, never for a strictly better
// bound-beating value (impossible) nor for a positive gap.
func TestGapCertifiesExactlyAtOptimality(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ti := randInstance(seed)
		_, optimal, err := ti.g.ExactSolve(ti.demands, ti.eval)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gap, certified, defined := Gap(optimal, r.Value)
		if !defined {
			t.Fatalf("seed %d: gap undefined for positive bound %.12f", seed, r.Value)
		}
		if certified != (gap == 0) {
			t.Fatalf("seed %d: certified=%v but gap=%v", seed, certified, gap)
		}
		if certified && optimal > r.Value*(1+1e-9) {
			t.Fatalf("seed %d: certified optimality but optimal %.12f > bound %.12f", seed, optimal, r.Value)
		}
	}
}

// TestResultJSONNoNaN: a marshaled Result never contains NaN or Inf —
// the encoding either renders finite numbers or omits the field.
func TestResultJSONNoNaN(t *testing.T) {
	ti := randInstance(3)
	r, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(string(raw), bad) {
			t.Fatalf("result JSON contains %s: %s", bad, raw)
		}
	}
}

// guidedTraceDigest is the SHA-256, over each case's Result.Fingerprint and
// a newline, of TestGuidedTraceMatchesUnguided's cases as the passes traced
// them when every run was unguided. Since the guide, the passes run guided
// and must still give every trace bit for bit.
const guidedTraceDigest = "ae66c49b0ef086339b831cb8598c2252219d3d82f9edefba1074234ebed037ff"

// TestGuidedTraceMatchesUnguided: the passes run guided toward each
// destination (core.Graph.ScaledPathInto), and the Lagrangian trace — every
// iterate, step and floor, Result.Fingerprint — is the one the unguided
// runs gave, on the suite's random instances and on a unit grid whose ties
// make the guided runs fall back. Field-1k is the external test's half.
func TestGuidedTraceMatchesUnguided(t *testing.T) {
	var cases []testInstance
	for seed := uint64(1); seed <= 50; seed++ {
		cases = append(cases, randInstance(seed))
	}
	const side = 7
	grid := core.NewGraph(side * side)
	for v := 0; v < side*side; v++ {
		grid.SetNodeWeight(v, 1)
		if v%side+1 < side {
			grid.AddEdge(v, v+1, 1)
		}
		if v+side < side*side {
			grid.AddEdge(v, v+side, 1)
		}
	}
	cases = append(cases, testInstance{g: grid, eval: core.EvalConfig{TIdle: 2, TData: 1, PacketsPerDemand: 1},
		demands: []core.Demand{{Src: 0, Dst: 48}, {Src: 6, Dst: 42, Rate: 2}, {Src: 3, Dst: 45}, {Src: 21, Dst: 27, Rate: 3}}})
	h := sha256.New()
	for k, ti := range cases {
		r, err := Compute(ti.g, ti.demands, Options{Tier: Lagrangian, Eval: ti.eval, Seed: uint64(k + 1), Trace: true})
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		t.Logf("case %d: %s", k, r.Fingerprint())
		fmt.Fprintln(h, r.Fingerprint())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != guidedTraceDigest {
		t.Fatalf("the traces moved (each case's fingerprint is in the verbose log):\n got %s\nwant %s", got, guidedTraceDigest)
	}
}
