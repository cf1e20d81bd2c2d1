package opt

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"eend/internal/obs"
)

// TestSearchWithBound is the acceptance gate of the bounds work: on the
// canonical 20-node clustered instance, annealing's reported gap against
// the Lagrangian bound must be at most 15%. (It is in fact 0: the bound
// certifies the annealed design optimal.)
func TestSearchWithBound(t *testing.T) {
	p := clusteredProblem(t)
	res, err := p.Search(context.Background(), p.Analytic(), Options{Algorithm: Anneal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, res, BoundLagrange)
	if res.Bound == nil {
		t.Fatal("bound applied but Result.Bound is nil")
	}
	if res.BoundTier != "lagrange" {
		t.Fatalf("bound tier %q, want lagrange", res.BoundTier)
	}
	if *res.Bound <= 0 || *res.Bound > res.BestEnergy*(1+1e-9) {
		t.Fatalf("bound %g not in (0, best=%g]", *res.Bound, res.BestEnergy)
	}
	if res.Gap == nil {
		t.Fatal("gap undefined for a positive bound")
	}
	if *res.Gap > 0.15 {
		t.Fatalf("anneal gap %.4f exceeds the 15%% acceptance ceiling", *res.Gap)
	}
}

// certify is the one protocol: the oracle's bound, folded into the result.
func certify(t *testing.T, p *Problem, res *Result, tier BoundTier) {
	t.Helper()
	br, err := p.Bound(BoundOptions{Tier: tier, Seed: res.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res.ApplyBound(br)
}

// TestSectionFourMethodWithBound: a Section 4 method's result certifies
// like any other, and a heuristic far from optimal reports a large,
// uncertified gap.
func TestSectionFourMethodWithBound(t *testing.T) {
	p := clusteredProblem(t)
	res, err := p.SearchMethod(context.Background(), "comm-first", p.Analytic(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, res, BoundLagrange)
	if res.Bound == nil || res.Gap == nil {
		t.Fatal("bound/gap missing on Section 4 method result")
	}
	if *res.Gap <= 0 || res.GapCertified {
		t.Fatalf("comm-first should report a positive uncertified gap, got gap=%g certified=%v",
			*res.Gap, res.GapCertified)
	}
}

// TestBoundResultJSON pins the wire names of the quality fields and that
// an unbounded search omits them entirely.
func TestBoundResultJSON(t *testing.T) {
	p := clusteredProblem(t)
	res, err := p.Search(context.Background(), p.Analytic(), Options{
		Algorithm: Greedy, Seed: 1, Iterations: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, res, BoundComb)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"bound":`, `"bound_tier":"comb"`, `"gap":`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("result JSON missing %s: %s", field, raw)
		}
	}
	bare, err := p.Search(context.Background(), p.Analytic(), Options{
		Algorithm: Greedy, Seed: 1, Iterations: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"bound"`, `"gap"`, `"bound_tier"`} {
		if strings.Contains(string(raw), field) {
			t.Errorf("unbounded result JSON leaks %s: %s", field, raw)
		}
	}
}

// TestBoundMetricsRegistered: every Problem.Bound call, whichever tier, is
// one observation of eend_opt_bound_seconds, and the bound instrumentation
// renders on the default registry and survives the exposition linter.
func TestBoundMetricsRegistered(t *testing.T) {
	p := clusteredProblem(t)
	for _, tier := range []BoundTier{BoundLagrange, BoundComb} {
		before := boundSeconds.Count()
		if _, err := p.Bound(BoundOptions{Tier: tier, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if got := boundSeconds.Count() - before; got != 1 {
			t.Errorf("tier %v: eend_opt_bound_seconds count rose by %d, want 1", tier, got)
		}
	}
	var w strings.Builder
	if err := obs.Default().WriteText(&w); err != nil {
		t.Fatal(err)
	}
	text := w.String()
	for _, fam := range []string{"eend_opt_bound_seconds", "eend_opt_gap"} {
		if !strings.Contains(text, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if problems := obs.Lint(text); len(problems) > 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}

// TestSetupCertifiesAnalyticOnly: Setup resolves both names in one place.
// The analytic objective gets the requested tier (the Lagrangian one by
// default, none for "none"); the simulator objective gets no bound, since
// an Eq. 5 certificate says nothing about simulated joules; and a bad name
// is an error whatever the other one says.
func TestSetupCertifiesAnalyticOnly(t *testing.T) {
	p := clusteredProblem(t)
	cfg := SimConfig{CacheDir: t.TempDir()}
	for _, tc := range []struct {
		objective, tier   string
		wantObj, wantTier string // wantTier "" means no bound
	}{
		{"", "", "analytic", "lagrange"},
		{"analytic", "comb", "analytic", "comb"},
		{"analytic", "none", "analytic", ""},
		{"sim", "", "sim", ""},
		{"sim", "lagrange", "sim", ""},
		{"sim", "none", "sim", ""},
	} {
		obj, br, err := p.Setup(tc.objective, tc.tier, 1, cfg)
		if err != nil {
			t.Fatalf("Setup(%q, %q): %v", tc.objective, tc.tier, err)
		}
		if obj.Name() != tc.wantObj {
			t.Errorf("Setup(%q, %q): objective %q, want %q", tc.objective, tc.tier, obj.Name(), tc.wantObj)
		}
		switch {
		case tc.wantTier == "" && br != nil:
			t.Errorf("Setup(%q, %q): bound %+v, want none", tc.objective, tc.tier, br)
		case tc.wantTier != "" && (br == nil || br.Tier != tc.wantTier):
			t.Errorf("Setup(%q, %q): bound %+v, want tier %s", tc.objective, tc.tier, br, tc.wantTier)
		}
	}
	for _, names := range [][2]string{{"nope", ""}, {"analytic", "nope"}, {"sim", "nope"}, {"nope", "none"}} {
		if _, _, err := p.Setup(names[0], names[1], 1, cfg); err == nil {
			t.Errorf("Setup(%q, %q) accepted a bad name", names[0], names[1])
		}
	}
}
