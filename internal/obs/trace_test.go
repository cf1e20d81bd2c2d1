package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestDisabledTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.ID() != "" {
		t.Fatal("nil tracer has a trace id")
	}
	sp := tr.Start(Span{}, "root", "k")
	if sp.ID() != "" {
		t.Fatal("span from disabled tracer has an id")
	}
	sp.End()           // must not panic
	sp.Point("p", "k") // must not panic
	child := tr.Start(sp, "child", "k")
	child.End(A("k", "v"))
}

func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(Span{}, "run", "fp")
		sp.Point("mark", "0")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per op, want 0", allocs)
	}
}

func TestDeterministicIDs(t *testing.T) {
	sink := NewMemSink()
	tr1 := NewTracer(TraceID("scenario-fp"), sink)
	tr2 := NewTracer(TraceID("scenario-fp"), NewMemSink())

	r1 := tr1.Start(Span{}, "sweep", "grid-fp")
	c1 := tr1.Start(r1, "point", "p0")
	r2 := tr2.Start(Span{}, "sweep", "grid-fp")
	c2 := tr2.Start(r2, "point", "p0")

	if r1.ID() != r2.ID() || c1.ID() != c2.ID() {
		t.Fatalf("same workload produced different span ids: %s/%s vs %s/%s",
			r1.ID(), c1.ID(), r2.ID(), c2.ID())
	}
	if tr1.ID() != tr2.ID() {
		t.Fatal("same seed produced different trace ids")
	}
	other := tr1.Start(r1, "point", "p1")
	if other.ID() == c1.ID() {
		t.Fatal("different keys produced the same span id")
	}
	if TraceID("a") == TraceID("b") {
		t.Fatal("different seeds produced the same trace id")
	}
}

func TestSpanTreeRoundTrip(t *testing.T) {
	sink := NewMemSink()
	tr := NewTracer(TraceID("root"), sink)

	root := tr.Start(Span{}, "sweep", "grid")
	p0 := tr.Start(root, "point", "fp0")
	rep := tr.Start(p0, "replicate", "rfp0")
	rep.End(A("source", "sim"))
	p0.End()
	root.Point("best", "1", AInt("step", 4))
	root.End(AInt("points", 1))

	events := sink.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	byID := make(map[string]Event)
	for _, ev := range events {
		byID[ev.Span] = ev
		if ev.Trace != tr.ID() {
			t.Errorf("event %s has trace %s, want %s", ev.Name, ev.Trace, tr.ID())
		}
	}
	// Walk child → parent up to the root.
	repEv := byID[rep.ID()]
	if repEv.Parent != p0.ID() {
		t.Errorf("replicate parent = %s, want %s", repEv.Parent, p0.ID())
	}
	if byID[repEv.Parent].Parent != root.ID() {
		t.Error("point does not parent to sweep root")
	}
	if byID[root.ID()].Parent != "" {
		t.Error("root has a parent")
	}
	if repEv.Attrs["source"] != "sim" {
		t.Errorf("replicate attrs = %v", repEv.Attrs)
	}
}

func TestJSONLSink(t *testing.T) {
	var b strings.Builder
	tr := NewTracer("t1", NewJSONLSink(&b))
	sp := tr.Start(Span{}, "run", "k")
	sp.End(A("ok", "yes"))

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	if ev.Name != "run" || ev.Trace != "t1" || ev.Attrs["ok"] != "yes" {
		t.Errorf("round-tripped event = %+v", ev)
	}
}

func TestMemSinkCap(t *testing.T) {
	s := &MemSink{cap: 2}
	for i := 0; i < 5; i++ {
		s.Emit(Event{Name: "e"})
	}
	if len(s.Events()) != 2 || s.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d, want 2/3", len(s.Events()), s.Dropped())
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if TracerFrom(ctx) != nil {
		t.Fatal("empty context carries a tracer")
	}
	tr := NewTracer("t", NewMemSink())
	ctx = WithTracer(ctx, tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("tracer not recovered from context")
	}
	// WithTracer(nil) must not shadow the context with a nil value.
	if TracerFrom(WithTracer(ctx, nil)) != tr {
		t.Fatal("WithTracer(nil) clobbered the tracer")
	}
}

func TestSortEvents(t *testing.T) {
	evs := []Event{
		{Span: "b", StartUS: 10},
		{Span: "a", StartUS: 10},
		{Span: "c", StartUS: 5},
	}
	SortEvents(evs)
	if evs[0].Span != "c" || evs[1].Span != "a" || evs[2].Span != "b" {
		t.Fatalf("sorted order = %v", evs)
	}
}
