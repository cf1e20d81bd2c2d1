package eend_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eend"
	"eend/internal/obs"
)

// runCount reads the process-wide count of completed simulator runs.
func runCount() uint64 {
	return obs.Default().Counter("eend_sim_runs_total", "").Value()
}

// batchScenarios builds a small mixed batch, including a replicated
// scenario so the nested fan-out path is exercised.
func batchScenarios(t *testing.T) []*eend.Scenario {
	t.Helper()
	var out []*eend.Scenario
	for seed := uint64(1); seed <= 4; seed++ {
		opts := []eend.Option{
			eend.WithSeed(seed),
			eend.WithField(250, 250),
			eend.WithNodes(10),
			eend.WithStack(eend.TITAN, eend.ODPM),
			eend.WithRandomFlows(2, 2048, 128),
			eend.WithDuration(25 * time.Second),
		}
		if seed == 2 {
			opts = append(opts, eend.WithReplicates(3))
		}
		sc, err := eend.NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// TestBatchDeterministicAcrossWorkerCounts is the eend-layer fingerprint
// equality proof: for fixed seeds, the parallel scheduler's batch output
// is byte-identical to workers=1, replicated scenarios included.
func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) map[int]string {
		fps := make(map[int]string)
		for br := range eend.RunBatch(context.Background(), batchScenarios(t), eend.Workers(workers)) {
			if br.Err != nil {
				t.Fatalf("workers=%d: scenario %d failed: %v", workers, br.Index, br.Err)
			}
			fps[br.Index] = br.Results.Fingerprint()
		}
		return fps
	}
	sequential := run(1)
	if len(sequential) != 4 {
		t.Fatalf("sequential batch delivered %d results", len(sequential))
	}
	parallel := run(4)
	for i, want := range sequential {
		if parallel[i] != want {
			t.Fatalf("scenario %d: workers=4 fingerprint %s != workers=1 %s", i, parallel[i], want)
		}
	}
}

// TestBatchSingleFlightSharesIdenticalScenarios: scenarios with equal
// fingerprints share one simulator run — the lowest index runs, every
// duplicate is Cached with an equal, unaliased Results — and because the
// grouping is done on the input, not by the schedule, the outcome is the
// same at every worker count (at one worker nothing is ever concurrently
// in flight, yet the duplicates still share).
func TestBatchSingleFlightSharesIdenticalScenarios(t *testing.T) {
	mk := func(seed uint64) *eend.Scenario {
		sc, err := eend.NewScenario(
			eend.WithSeed(seed),
			eend.WithField(250, 250),
			eend.WithNodes(10),
			eend.WithStack(eend.DSR, eend.ODPM),
			eend.WithRandomFlows(2, 2048, 128),
			eend.WithDuration(40*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	if mk(7).Fingerprint() != mk(7).Fingerprint() {
		t.Fatal("identical options produced different fingerprints")
	}
	var want string
	for _, workers := range []int{1, 2, 8} {
		// Indices 0, 2 and 3 are one scenario; index 1 stands alone.
		batch := []*eend.Scenario{mk(7), mk(8), mk(7), mk(7)}
		results := make([]*eend.Results, len(batch))
		cached := make([]bool, len(batch))
		runs := runCount()
		for br := range eend.RunBatch(context.Background(), batch, eend.Workers(workers)) {
			if br.Err != nil {
				t.Fatalf("workers=%d: scenario %d: %v", workers, br.Index, br.Err)
			}
			results[br.Index], cached[br.Index] = br.Results, br.Cached
		}
		if got := runCount() - runs; got != 2 {
			t.Errorf("workers=%d: %d simulator runs, want 2 (one per distinct fingerprint)", workers, got)
		}
		if !reflect.DeepEqual(cached, []bool{false, false, true, true}) {
			t.Errorf("workers=%d: Cached = %v, want only the duplicates", workers, cached)
		}
		for _, i := range []int{2, 3} {
			if !reflect.DeepEqual(results[i], results[0]) {
				t.Errorf("workers=%d: duplicate %d differs from its leader", workers, i)
			}
			if results[i] == results[0] || &results[i].PerNode[0] == &results[0].PerNode[0] {
				t.Errorf("workers=%d: duplicate %d aliases the leader's Results", workers, i)
			}
		}
		if &results[2].PerNode[0] == &results[3].PerNode[0] {
			t.Errorf("workers=%d: the duplicates alias each other", workers)
		}
		if want == "" {
			want = results[0].Fingerprint()
		} else if got := results[0].Fingerprint(); got != want {
			t.Errorf("workers=%d: leader fingerprint %s, want %s", workers, got, want)
		}
	}
}

// TestBatchSingleFlightFailedLeader: when the one shared run is cancelled
// mid-flight the leader arrives as an error without Results, and its
// duplicate — still queued behind it, so never dispatched — does not
// appear: the same single result at every worker count.
func TestBatchSingleFlightFailedLeader(t *testing.T) {
	mk := func() *eend.Scenario {
		sc, err := eend.NewScenario(
			eend.WithSeed(9),
			eend.WithField(900, 900),
			eend.WithNodes(100),
			eend.WithStack(eend.DSR, eend.ODPM),
			eend.WithRandomFlows(10, 4096, 128),
			eend.WithDuration(900*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		ch := eend.RunBatch(ctx, []*eend.Scenario{mk(), mk()}, eend.Workers(workers))
		time.Sleep(100 * time.Millisecond) // let the leader dispatch
		cancel()
		var got []int
		for br := range ch {
			if br.Err == nil {
				t.Fatalf("workers=%d: scenario %d succeeded under a cancelled context", workers, br.Index)
			}
			if br.Results != nil {
				t.Fatalf("workers=%d: failed result %d carries Results", workers, br.Index)
			}
			got = append(got, br.Index)
		}
		if !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("workers=%d: results for %v, want the cancelled leader alone", workers, got)
		}
	}
}

// TestBatchDepartedConsumer: a consumer that abandons the channel without
// cancelling lets every simulation complete and leaks nothing — the
// workers and the batch's own goroutine must all drain.
func TestBatchDepartedConsumer(t *testing.T) {
	base := runtime.NumGoroutine()
	var scenarios []*eend.Scenario
	for seed := uint64(1); seed <= 30; seed++ {
		sc, err := eend.NewScenario(
			eend.WithSeed(seed), eend.WithField(200, 200), eend.WithNodes(6),
			eend.WithStack(eend.TITAN, eend.ODPM),
			eend.WithRandomFlows(1, 2048, 128), eend.WithDuration(25*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	ch := eend.RunBatch(context.Background(), scenarios, eend.Workers(2))
	<-ch // read one result, then depart without cancelling
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after consumer departure: %d before, %d after",
				base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBatchLateReaderGetsEveryResult: results that landed before a cancel
// stay readable however long the consumer takes to come back for them.
func TestBatchLateReaderGetsEveryResult(t *testing.T) {
	var scenarios []*eend.Scenario
	for seed := uint64(1); seed <= 30; seed++ {
		sc, err := eend.NewScenario(
			eend.WithSeed(seed), eend.WithField(200, 200), eend.WithNodes(6),
			eend.WithStack(eend.TITAN, eend.ODPM),
			eend.WithRandomFlows(1, 2048, 128), eend.WithDuration(25*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	runs := runCount()
	ctx, cancel := context.WithCancel(context.Background())
	ch := eend.RunBatch(ctx, scenarios, eend.Workers(2))
	deadline := time.Now().Add(30 * time.Second)
	for runCount()-runs < uint64(len(scenarios)) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d runs finished", runCount()-runs, len(scenarios))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	time.Sleep(1500 * time.Millisecond)
	seen := make(map[int]bool)
	for br := range ch {
		if br.Err != nil {
			t.Errorf("scenario %d: %v", br.Index, br.Err)
		}
		seen[br.Index] = true
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("%d of %d finished results arrived", len(seen), len(scenarios))
	}
}

// TestBatchCancelThenBreakLeakFree: the canonical early-exit pattern —
// cancel ctx, break out of the result loop — must free the whole
// pipeline.
func TestBatchCancelThenBreakLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	var scenarios []*eend.Scenario
	for seed := uint64(1); seed <= 12; seed++ {
		sc, err := eend.NewScenario(
			eend.WithSeed(seed), eend.WithField(200, 200), eend.WithNodes(6),
			eend.WithStack(eend.TITAN, eend.ODPM),
			eend.WithRandomFlows(1, 2048, 128), eend.WithDuration(25*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := eend.RunBatch(ctx, scenarios, eend.Workers(2))
	<-ch
	cancel() // then break: never read ch again
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel-then-break leaked goroutines: %d before, %d after",
				base, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// settleGoroutines waits for the goroutine count to come back near base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after", base, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicateCancellationMidRun: cancelling between replicate work items
// must surface the context error promptly and leak no goroutines — the
// satellite's mid-replicate coverage (whole-run cancellation was already
// tested).
func TestReplicateCancellationMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	sc, err := eend.NewScenario(
		eend.WithSeed(3),
		eend.WithField(900, 900),
		eend.WithNodes(80),
		eend.WithStack(eend.DSR, eend.ODPM),
		eend.WithRandomFlows(8, 4096, 128),
		eend.WithDuration(600*time.Second),
		eend.WithReplicates(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := sc.Run(ctx)
		done <- err
	}()
	// Let the first replicates dispatch, then cancel mid-flight.
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled replicated run returned no error")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("cancelled replicated run did not return")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	settleGoroutines(t, base)
}

// TestBatchCancellationPartialProgress: results completed before the
// cancel are still delivered; the pool drains without leaking goroutines.
func TestBatchCancellationPartialProgress(t *testing.T) {
	base := runtime.NumGoroutine()
	quick, err := eend.NewScenario(
		eend.WithSeed(1), eend.WithField(200, 200), eend.WithNodes(6),
		eend.WithStack(eend.TITAN, eend.ODPM),
		eend.WithRandomFlows(1, 2048, 128), eend.WithDuration(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := eend.NewScenario(
		eend.WithSeed(2), eend.WithField(900, 900), eend.WithNodes(100),
		eend.WithStack(eend.DSR, eend.ODPM),
		eend.WithRandomFlows(10, 4096, 128), eend.WithDuration(900*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// One worker: the quick scenario completes first, then the slow one is
	// cancelled mid-run; the third never dispatches.
	ch := eend.RunBatch(ctx, []*eend.Scenario{quick, slow, slow}, eend.Workers(1))
	first, ok := <-ch
	if !ok || first.Index != 0 || first.Err != nil {
		t.Fatalf("first result = %+v, %v", first, ok)
	}
	cancel()
	finished, succeeded := 1, 0
	for br := range ch {
		finished++
		if br.Err == nil {
			succeeded++
		}
	}
	// The quick result survived the cancel; at most the in-flight slow run
	// arrives after it (as a failure) — never a post-cancel success, and
	// never the undispatched third scenario.
	if finished > 2 || succeeded > 0 {
		t.Fatalf("after cancel: %d results, %d successes — want partial progress only", finished, succeeded)
	}
	settleGoroutines(t, base)
}
