package eend

import (
	"context"
	"testing"

	"eend/internal/obs"
)

// TestInstrumentedRunIsBitIdentical pins the observability hard
// constraint: enabling the tracer (and, implicitly, the always-on metric
// counters) never changes simulation results. A traced run must reproduce
// the untraced golden fingerprint bit for bit, and the trace itself must
// contain the deterministic facade span keyed by the scenario
// fingerprint.
func TestInstrumentedRunIsBitIdentical(t *testing.T) {
	g := goldenRuns[0]
	sc, err := NewScenario(g.opts...)
	if err != nil {
		t.Fatal(err)
	}

	sink := obs.NewMemSink()
	tr := obs.NewTracer(obs.TraceID(sc.Fingerprint()), sink)
	ctx := obs.WithTracer(context.Background(), tr)

	res, err := sc.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fp := res.Fingerprint(); fp != g.fingerprint {
		t.Errorf("traced run fingerprint = %s, want untraced golden %s", fp, g.fingerprint)
	}

	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("traced run emitted no spans")
	}
	// The facade span's id is predictable from the scenario fingerprint
	// alone — the determinism contract for span ids.
	wantSpan := tr.Start(obs.Span{}, "sim", sc.Fingerprint()).ID()
	found := false
	for _, ev := range events {
		if ev.Name == "sim" && ev.Span == wantSpan {
			found = true
			if ev.Trace != tr.ID() {
				t.Errorf("sim span trace = %s, want %s", ev.Trace, tr.ID())
			}
		}
	}
	if !found {
		t.Errorf("no sim span with deterministic id %s in trace", wantSpan)
	}
}

// TestReplicatedRunTracesEveryReplicate pins what docs/observability.md
// promises of a replicated run: one sim span per replicate, keyed by that
// replicate's fingerprint, and results no different from the untraced run's.
func TestReplicatedRunTracesEveryReplicate(t *testing.T) {
	opts := append(append([]Option(nil), goldenRuns[0].opts...), WithReplicates(3))
	sc, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sink := obs.NewMemSink()
	tr := obs.NewTracer(obs.TraceID(sc.Fingerprint()), sink)
	traced, err := sc.Run(obs.WithTracer(context.Background(), tr))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traced.Fingerprint(), plain.Fingerprint(); got != want {
		t.Errorf("traced replicated run fingerprint = %s, want untraced %s", got, want)
	}

	want := make(map[string]bool) // span id -> seen
	for k := 0; k < sc.Replicates(); k++ {
		rep, err := sc.Replicate(k)
		if err != nil {
			t.Fatal(err)
		}
		want[tr.Start(obs.Span{}, "sim", rep.Fingerprint()).ID()] = false
	}
	if len(want) != 3 {
		t.Fatalf("replicates share a fingerprint: %d distinct span ids, want 3", len(want))
	}
	sims := 0
	for _, ev := range sink.Events() {
		if ev.Name != "sim" {
			continue
		}
		sims++
		if _, ok := want[ev.Span]; !ok {
			t.Errorf("sim span %s is keyed by no replicate's fingerprint", ev.Span)
		}
		want[ev.Span] = true
	}
	if sims != 3 {
		t.Errorf("traced replicated run emitted %d sim spans, want 3", sims)
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("no sim span with id %s", id)
		}
	}
}
