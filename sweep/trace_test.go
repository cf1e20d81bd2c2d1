package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"eend/internal/cache"
	"eend/internal/obs"
)

// tracedGrid is tiny but replicated, so the span tree exercises every
// level: sweep -> point -> replicate -> cache/sim.
func tracedGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := ParseGrid("nodes=5 seed=1..2 field=200 dur=25s flows=1 rate=2 replicates=2")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTraceRoundTripTree is the trace-export acceptance check: run a
// replicated sweep with a tracer attached, serialize the events to JSONL,
// parse them back, and reconstruct the full span tree — one sweep root, a
// point per grid point, a replicate per derived seed, and cache/sim leaves
// under each replicate. It also proves tracing never changes results.
func TestTraceRoundTripTree(t *testing.T) {
	ctx := context.Background()

	base, _, err := Runner{}.Run(ctx, tracedGrid(t))
	if err != nil {
		t.Fatal(err)
	}

	sink := &obs.MemSink{}
	r := Runner{Cache: cache.NewMem(), Trace: obs.NewTracer(obs.TraceID("sweep-test"), sink)}
	results, prog, err := r.Run(ctx, tracedGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Errors != 0 || prog.Done != 2 {
		t.Fatalf("progress = %+v, want 2 clean points", prog)
	}

	// Tracing must not change a single bit of the results.
	for i := range results {
		a, _ := json.Marshal(base[i].Results)
		b, _ := json.Marshal(results[i].Results)
		if !bytes.Equal(a, b) {
			t.Fatalf("point %d: traced results differ from untraced", i)
		}
	}

	// JSONL round trip: serialize, re-parse, rebuild the tree.
	var buf bytes.Buffer
	if err := sink.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	byID := make(map[string]obs.Event)
	byName := make(map[string][]obs.Event)
	for _, ev := range events {
		if ev.Trace != obs.TraceID("sweep-test") {
			t.Fatalf("event %q carries trace %q", ev.Name, ev.Trace)
		}
		if _, dup := byID[ev.Span]; dup {
			t.Fatalf("duplicate span id %s", ev.Span)
		}
		byID[ev.Span] = ev
		byName[ev.Name] = append(byName[ev.Name], ev)
	}

	// 1 sweep, 2 points, 4 replicates; cold cache: a cache leaf (miss) and
	// a sim leaf per replicate.
	for name, want := range map[string]int{"sweep": 1, "point": 2, "replicate": 4, "cache": 4, "sim": 4} {
		if got := len(byName[name]); got != want {
			t.Fatalf("%d %q spans, want %d", got, name, want)
		}
	}
	if root := byName["sweep"][0]; root.Parent != "" {
		t.Fatalf("sweep root has parent %q", root.Parent)
	}

	// Every sim leaf must chain sim -> replicate -> point -> sweep -> root.
	for _, leaf := range byName["sim"] {
		want := []string{"replicate", "point", "sweep"}
		ev := leaf
		for _, name := range want {
			parent, ok := byID[ev.Parent]
			if !ok {
				t.Fatalf("span %s (%s) has unknown parent %s", ev.Span, ev.Name, ev.Parent)
			}
			if parent.Name != name {
				t.Fatalf("span %s parent is %q, want %q", ev.Span, parent.Name, name)
			}
			ev = parent
		}
	}
	for _, leaf := range byName["cache"] {
		if p := byID[leaf.Parent]; p.Name != "replicate" {
			t.Fatalf("cache leaf parented under %q", p.Name)
		}
		if leaf.Attrs["hit"] != "false" {
			t.Fatalf("cold-cache leaf reports hit=%q", leaf.Attrs["hit"])
		}
	}

	// Deterministic IDs: the same grid traced again yields the same tree,
	// cold and then warm, whichever worker emits a cache leaf.
	shapes := func(evs []obs.Event) map[string]string {
		m := make(map[string]string)
		for _, ev := range evs {
			m[ev.Span] = ev.Name + "/" + ev.Parent + "/" + ev.Attrs["hit"] + ev.Attrs["cached"]
		}
		return m
	}
	cold, warm := shapes(events), map[string]string(nil)
	for _, workers := range []int{1, 2, 8} {
		store := cache.NewMem()
		for _, want := range []*map[string]string{&cold, &warm} {
			sink := &obs.MemSink{}
			r := Runner{Workers: workers, Cache: store, Trace: obs.NewTracer(obs.TraceID("sweep-test"), sink)}
			if _, _, err := r.Run(ctx, tracedGrid(t)); err != nil {
				t.Fatal(err)
			}
			got := shapes(sink.Events())
			if *want == nil {
				*want = got
			} else if !maps.Equal(got, *want) {
				t.Fatalf("workers=%d: span tree changed across reruns:\n got %v\nwant %v", workers, got, *want)
			}
		}
	}
	for _, shape := range warm {
		if strings.HasPrefix(shape, "sim/") {
			t.Fatalf("warm rerun recorded a simulation: %s", shape)
		}
	}
}
