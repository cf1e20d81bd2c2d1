package opt

import (
	"context"
	"math"
	"strings"
	"testing"

	"eend/internal/obs"
)

// TestInstrumentedSearchIsBitIdentical is the search's half of the
// observability hard constraint (the simulator's is the root package's
// obs_equivalence_test.go, which cannot import opt): a traced search finds
// what the untraced one finds, and the per-move counters account for every
// proposal — each rewire and swap proposal is exactly one shortest-path
// run, every staged proposal is one accepted or rejected step, and the
// per-move verdicts sum to eend_opt_steps_total's.
func TestInstrumentedSearchIsBitIdentical(t *testing.T) {
	p := clusteredProblem(t)
	counts := func() (c [3][4]uint64) {
		for k := range moveStats {
			m := &moveStats[k]
			c[k] = [4]uint64{m.missed.Value(), m.accepted.Value(), m.rejected.Value(), m.reroutes.Value()}
		}
		return c
	}
	search := func(tr *obs.Tracer) *Result {
		res, err := p.Search(context.Background(), p.Analytic(), Options{Algorithm: Anneal, Seed: 7, Iterations: 300, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := counts()
	steps := stepsAccepted.Value() + stepsRejected.Value()
	plain := search(nil)
	after := counts()

	var accepted, rejected uint64
	for k, name := range []string{moveRewire, moveSwap, movePowerDown} {
		var d [4]uint64
		for j := range d {
			d[j] = after[k][j] - before[k][j]
		}
		missed, acc, rej, runs := d[0], d[1], d[2], d[3]
		accepted, rejected = accepted+acc, rejected+rej
		if proposals := missed + acc + rej; name != movePowerDown && runs != proposals {
			t.Errorf("%s: %d shortest-path runs for %d proposals, want one each", name, runs, proposals)
		} else if name == movePowerDown && runs < acc+rej {
			t.Errorf("powerdown: %d shortest-path runs for %d staged proposals", runs, acc+rej)
		}
		if missed+acc+rej == 0 {
			t.Errorf("%s: a 300-step anneal proposed none", name)
		}
	}
	if accepted != uint64(plain.Accepted) || rejected != uint64(plain.Rejected) {
		t.Errorf("per-move verdicts %d/%d, result says %d/%d", accepted, rejected, plain.Accepted, plain.Rejected)
	}
	if got := stepsAccepted.Value() + stepsRejected.Value() - steps; got != accepted+rejected {
		t.Errorf("eend_opt_steps_total moved by %d, the per-move verdicts by %d", got, accepted+rejected)
	}

	traced := search(obs.NewTracer(obs.TraceID("search"), obs.NewMemSink()))
	if traced.BestFingerprint != plain.BestFingerprint || traced.Accepted != plain.Accepted ||
		math.Float64bits(traced.BestEnergy) != math.Float64bits(plain.BestEnergy) {
		t.Errorf("traced search found %s %v (%d accepted), untraced %s %v (%d)",
			traced.BestFingerprint, traced.BestEnergy, traced.Accepted, plain.BestFingerprint, plain.BestEnergy, plain.Accepted)
	}

	// A Section 4 method is one search that takes no step, traced or not.
	section4 := func(tr *obs.Tracer) *Result {
		res, err := p.SearchMethod(context.Background(), "idle-first", p.Analytic(), Options{Seed: 7, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	searches, steps := searchesDone.Value(), stepsAccepted.Value()+stepsRejected.Value()
	plain4 := section4(nil)
	if got := searchesDone.Value() - searches; got != 1 {
		t.Errorf("eend_opt_searches_total moved by %d over one Section 4 method, want 1", got)
	}
	if got := stepsAccepted.Value() + stepsRejected.Value() - steps; got != 0 {
		t.Errorf("eend_opt_steps_total moved by %d over a Section 4 method, want 0", got)
	}
	sink := obs.NewMemSink()
	traced4 := section4(obs.NewTracer(obs.TraceID("section4"), sink))
	if traced4.BestFingerprint != plain4.BestFingerprint || traced4.Iterations != 1 || plain4.Iterations != 1 ||
		math.Float64bits(traced4.BestEnergy) != math.Float64bits(plain4.BestEnergy) {
		t.Errorf("traced idle-first found %s %v (%d iterations), untraced %s %v (%d)",
			traced4.BestFingerprint, traced4.BestEnergy, traced4.Iterations, plain4.BestFingerprint, plain4.BestEnergy, plain4.Iterations)
	}
	roots := 0
	for _, ev := range sink.Events() {
		if ev.Name == "search" {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("traced idle-first emitted %d search spans, want 1", roots)
	}

	var w strings.Builder
	if err := obs.Default().WriteText(&w); err != nil {
		t.Fatal(err)
	}
	text := w.String()
	for _, move := range []string{moveRewire, moveSwap, movePowerDown} {
		for _, series := range []string{
			`eend_opt_proposals_total{move="` + move + `",outcome="missed"}`,
			`eend_opt_proposals_total{move="` + move + `",outcome="accepted"}`,
			`eend_opt_proposals_total{move="` + move + `",outcome="rejected"}`,
			`eend_opt_reroutes_total{move="` + move + `"}`,
		} {
			if !strings.Contains(text, series+" ") {
				t.Errorf("exposition missing %s", series)
			}
		}
	}
	if problems := obs.Lint(text); len(problems) > 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}
