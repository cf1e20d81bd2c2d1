package sweep

import (
	"context"
	"strings"
	"testing"

	"eend/internal/obs"
	"eend/internal/sim"
)

// TestSweepDeterministicAcrossWorkerCounts is the sweep-layer fingerprint
// equality proof: the full CSV rendering (grid order, every metric column)
// of a parallel sweep is byte-identical to workers=1 — replicated points
// included, since their per-seed fan-out rides the same scheduler.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g, err := ParseGrid("nodes=5,7 seed=1,2 field=200 dur=25s flows=1 rate=2 replicates=2")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		r := Runner{Workers: workers}
		results, prog, err := r.Run(context.Background(), g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if prog.Errors != 0 || prog.Done != prog.Total {
			t.Fatalf("workers=%d: progress %+v", workers, prog)
		}
		var rows []string
		for _, sr := range results {
			rows = append(rows, strings.Join(CSVRow(g, sr), ","))
		}
		return strings.Join(rows, "\n")
	}
	sequential := render(1)
	for _, w := range []int{2, 4} {
		if parallel := render(w); parallel != sequential {
			t.Fatalf("workers=%d CSV differs from workers=1:\n%s\n---\n%s", w, parallel, sequential)
		}
	}
}

// TestTwoWorkerSweepCountsExactly holds the kernel's batched reporting to
// its promise across runs side by side: every simulation tallies in its own
// memory and adds to the process-wide counters now and then, so once a
// two-worker sweep has returned, eend_sim_events_total has moved by exactly
// the events its results report, and the per-layer timer counters by what a
// one-worker sweep of the same grid moves them. Under the race detector (CI
// runs it there) it is also the proof that nothing else is shared.
func TestTwoWorkerSweepCountsExactly(t *testing.T) {
	g, err := ParseGrid("nodes=5,7 seed=1..4 field=200 dur=25s flows=1 rate=2")
	if err != nil {
		t.Fatal(err)
	}
	counts := sim.NewCounters(obs.Default()) // the counters internal/network registered
	read := func() (c [1 + sim.NumLayers]uint64) {
		c[0] = counts.Events.Value()
		for l, timers := range counts.Timers {
			c[1+l] = timers.Value()
		}
		return c
	}
	var moved [2][1 + sim.NumLayers]uint64
	for i, workers := range []int{2, 1} {
		before := read()
		r := Runner{Workers: workers}
		results, _, err := r.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		var events uint64
		for _, sr := range results {
			if sr.Err != nil {
				t.Fatal(sr.Err)
			}
			events += sr.Results.Events
		}
		for k, after := range read() {
			moved[i][k] = after - before[k]
		}
		if moved[i][0] != events || events == 0 {
			t.Fatalf("workers=%d: eend_sim_events_total moved by %d, the results report %d events", workers, moved[i][0], events)
		}
	}
	if moved[0] != moved[1] {
		t.Fatalf("counters moved by %v under two workers, %v under one", moved[0], moved[1])
	}
}
