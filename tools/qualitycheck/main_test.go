package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func committedBaseline(t *testing.T) Baseline {
	t.Helper()
	data, err := os.ReadFile("../../QUALITY_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestBaselineCommitted pins the committed baseline's shape: the current
// format version and at least the three canonical instances, each with a
// finite nonnegative gap and a positive bound.
func TestBaselineCommitted(t *testing.T) {
	base := committedBaseline(t)
	if base.Version != baselineVersion {
		t.Fatalf("baseline version %q, want %q", base.Version, baselineVersion)
	}
	if len(base.Instances) < 3 {
		t.Fatalf("baseline pins %d instances, want >= 3", len(base.Instances))
	}
	for _, name := range []string{"default-20", "field-100", "field-1k"} {
		q, ok := base.Instances[name]
		if !ok {
			t.Fatalf("baseline lacks canonical instance %s", name)
		}
		if q.Bound <= 0 || q.Best < q.Bound {
			t.Fatalf("%s pins best %g below bound %g", name, q.Best, q.Bound)
		}
		if math.IsNaN(q.Gap) || math.IsInf(q.Gap, 0) || q.Gap < 0 {
			t.Fatalf("%s pins bad gap %g", name, q.Gap)
		}
		if q.Tier != "lagrange" || q.Method != "anneal" {
			t.Fatalf("%s pins tier %q method %q", name, q.Tier, q.Method)
		}
	}
}

// TestCheck exercises the gate logic against synthetic measurements.
func TestCheck(t *testing.T) {
	base := Baseline{
		Version: baselineVersion,
		Instances: map[string]Quality{
			"a": {Best: 10, Bound: 10, Gap: 0, GapCertified: true},
			"b": {Best: 11, Bound: 10, Gap: 0.1},
		},
	}
	ok := map[string]Quality{
		"a": {Best: 10, Bound: 10, Gap: 0, GapCertified: true},
		"b": {Best: 10.5, Bound: 10, Gap: 0.05}, // improvement passes
	}
	if err := Check(base, ok, 0.01); err != nil {
		t.Fatalf("matching measurements rejected: %v", err)
	}

	regressed := map[string]Quality{
		"a": {Best: 10, Bound: 10, Gap: 0, GapCertified: true},
		"b": {Best: 12, Bound: 10, Gap: 0.2},
	}
	if err := Check(base, regressed, 0.01); err == nil {
		t.Fatal("regressed gap passed the gate")
	}

	uncertified := map[string]Quality{
		"a": {Best: 10.2, Bound: 10, Gap: 0.02}, // lost the certificate
		"b": {Best: 11, Bound: 10, Gap: 0.1},
	}
	if err := Check(base, uncertified, 0.01); err == nil {
		t.Fatal("lost optimality certificate passed the gate")
	}

	missing := map[string]Quality{"a": {Best: 10, Bound: 10, GapCertified: true}}
	if err := Check(base, missing, 0.01); err == nil {
		t.Fatal("missing instance passed the gate")
	}

	stale := base
	stale.Version = "eend.quality/0"
	if err := Check(stale, ok, 0.01); err == nil {
		t.Fatal("stale baseline version passed the gate")
	}

	empty := Baseline{Version: baselineVersion}
	if err := Check(empty, ok, 0.01); err == nil {
		t.Fatal("empty baseline passed the gate")
	}
}

// TestMeasureDeterministic: the gate only works if measuring is exactly
// reproducible — same instance, same budget, bit-identical quality.
func TestMeasureDeterministic(t *testing.T) {
	inst := Instances()[0] // default-20
	a, err := Measure(context.Background(), inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(context.Background(), inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("measurement is not deterministic:\n %+v\n %+v", a, b)
	}
}

// TestFullBudgetMatchesBaseline is the gate run as CI runs it: measuring
// every canonical instance at the canonical budget must reproduce the
// committed baseline exactly and pass Check.
func TestFullBudgetMatchesBaseline(t *testing.T) {
	base := committedBaseline(t)
	measured, err := MeasureAll(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range base.Instances {
		if got := measured[name]; got != want {
			t.Errorf("%s: measured %+v, baseline pins %+v", name, got, want)
		}
	}
	if err := Check(base, measured, 0.01); err != nil {
		t.Fatalf("full-budget measurement failed the gate: %v", err)
	}
}

// TestGateFailsOnBudgetCut is the self-test the gate's existence rests on:
// a deliberately starved search must fail Check against the committed
// baseline. The canonical instances converge far below their default
// budget (a tenth of the steps still certifies optimal — measured, not
// assumed), so the cut that provably degrades quality is a single search
// step; what matters is that the widened gap trips the gate rather than
// sliding through.
func TestGateFailsOnBudgetCut(t *testing.T) {
	base := committedBaseline(t)
	starved, err := MeasureAll(context.Background(), 1.0/float64(searchIterations))
	if err != nil {
		t.Fatal(err)
	}
	degraded := false
	for name := range base.Instances {
		if starved[name].Gap > base.Instances[name].Gap+0.01 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("starved search still matches the baseline; the gate has nothing to bite on")
	}
	if err := Check(base, starved, 0.01); err == nil {
		t.Fatal("budget-starved measurement passed the gate")
	}
}
