package sweep

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"eend"
	"eend/internal/eval"
)

// testGrid is small but multi-axis: 2 nodes values x 2 seeds = 4 points,
// each a short cheap run (flows start at 20 s; the 25 s horizon keeps the
// simulated traffic tiny).
func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := ParseGrid("nodes=5,8 seed=1..2 field=200 dur=25s flows=1 rate=2")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// countSims counts the scenarios the evaluator hands to the in-process
// simulator, through its one test hook; restored on test cleanup.
func countSims(t *testing.T) *atomic.Int64 {
	t.Helper()
	var sims atomic.Int64
	eval.OnSimulate = func(*eend.Scenario) { sims.Add(1) }
	t.Cleanup(func() { eval.OnSimulate = nil })
	return &sims
}

func TestRunWithoutCache(t *testing.T) {
	var r Runner
	results, prog, err := r.Run(context.Background(), testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || prog.Done != 4 || prog.Total != 4 {
		t.Fatalf("results/progress = %d/%+v, want 4 points", len(results), prog)
	}
	if prog.CacheHits != 0 || prog.Errors != 0 {
		t.Fatalf("progress = %+v, want no hits and no errors", prog)
	}
	for i, sr := range results {
		if sr.Point.Index != i {
			t.Fatalf("results not in grid order at %d", i)
		}
		if sr.Results == nil || sr.Err != nil {
			t.Fatalf("point %d failed: %v", i, sr.Err)
		}
		if sr.Cached {
			t.Fatalf("point %d claims a cache hit without a cache", i)
		}
		if len(sr.Fingerprint) != 64 {
			t.Fatalf("point %d fingerprint %q is not a sha256 hex", i, sr.Fingerprint)
		}
	}
}

// TestRerunIsFullyCached is the subsystem's core guarantee: re-running an
// unchanged grid completes with 100% cache hits and zero simulator
// invocations — proven by counting the scenarios the evaluator hands to
// the simulator.
func TestRerunIsFullyCached(t *testing.T) {
	dir := t.TempDir()
	r := Runner{CacheDir: dir}

	first, prog, err := r.Run(context.Background(), testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if prog.CacheHits != 0 {
		t.Fatalf("first run had %d cache hits, want 0", prog.CacheHits)
	}

	invoked := countSims(t)

	second, prog2, err := r.Run(context.Background(), testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if invoked.Load() != 0 {
		t.Fatalf("re-run invoked the simulator for %d scenarios, want 0", invoked.Load())
	}
	if prog2.CacheHits != prog2.Total || prog2.Done != prog2.Total {
		t.Fatalf("re-run progress = %+v, want 100%% cache hits", prog2)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("point %d not served from cache", i)
		}
		if second[i].Fingerprint != first[i].Fingerprint {
			t.Fatalf("point %d fingerprint changed across runs", i)
		}
		a, b := first[i].Results, second[i].Results
		if a.Sent != b.Sent || a.Delivered != b.Delivered || a.Energy != b.Energy {
			t.Fatalf("point %d cached results differ from simulated ones", i)
		}
	}
}

func TestChangedAxisSimulatesOnlyNewPoints(t *testing.T) {
	dir := t.TempDir()
	r := Runner{CacheDir: dir}
	if _, _, err := r.Run(context.Background(), testGrid(t)); err != nil {
		t.Fatal(err)
	}

	invoked := countSims(t)

	// One more nodes value: 2 new points (x 2 seeds), 4 old ones cached.
	wider, err := ParseGrid("nodes=5,8,12 seed=1..2 field=200 dur=25s flows=1 rate=2")
	if err != nil {
		t.Fatal(err)
	}
	_, prog, err := r.Run(context.Background(), wider)
	if err != nil {
		t.Fatal(err)
	}
	if invoked.Load() != 2 {
		t.Fatalf("simulated %d points, want only the 2 new ones", invoked.Load())
	}
	if prog.CacheHits != 4 || prog.Done != 6 {
		t.Fatalf("progress = %+v, want 4 hits of 6 points", prog)
	}
}

// TestReplicatedPointsCachePerSeed pins the replication layer's cache
// contract: a replicated point is cached one derived seed at a time, so an
// unchanged grid re-runs from cache alone and widening the replicates axis
// simulates only the new seeds.
func TestReplicatedPointsCachePerSeed(t *testing.T) {
	dir := t.TempDir()
	r := Runner{CacheDir: dir}
	grid := func(reps int) *Grid {
		g, err := ParseGrid("nodes=5 seed=1..2 field=200 dur=25s flows=1 rate=2 replicates=" + strconv.Itoa(reps))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	invoked := countSims(t)

	// 2 points x 3 replicates = 6 simulations.
	results, prog, err := r.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if invoked.Load() != 6 {
		t.Fatalf("first run simulated %d scenarios, want 6", invoked.Load())
	}
	if prog.Done != 2 || prog.CacheHits != 0 {
		t.Fatalf("first run progress = %+v, want 2 fresh points", prog)
	}
	for _, sr := range results {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		rep := sr.Results.Replicates
		if rep == nil || rep.N != 3 {
			t.Fatalf("point %d missing 3-replicate summary: %+v", sr.Point.Index, rep)
		}
	}

	// Unchanged grid: all 6 replicate results come from the cache.
	invoked.Store(0)
	again, prog2, err := r.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if invoked.Load() != 0 {
		t.Fatalf("re-run simulated %d scenarios, want 0", invoked.Load())
	}
	if prog2.CacheHits != 2 {
		t.Fatalf("re-run progress = %+v, want both points cached", prog2)
	}
	for i := range again {
		if !again[i].Cached {
			t.Fatalf("point %d not served from cache", i)
		}
		if again[i].Results.Replicates.DeliveryRatio != results[i].Results.Replicates.DeliveryRatio {
			t.Fatalf("point %d cached aggregate differs", i)
		}
	}

	// Widening 3 -> 5 replicates simulates only the 2x2 new seeds.
	invoked.Store(0)
	_, prog3, err := r.Run(context.Background(), grid(5))
	if err != nil {
		t.Fatal(err)
	}
	if invoked.Load() != 4 {
		t.Fatalf("widened run simulated %d scenarios, want only the 4 new seeds", invoked.Load())
	}
	// The points themselves are partially fresh, so they do not count as
	// cache hits even though 6 of 10 replicates were.
	if prog3.Done != 2 || prog3.CacheHits != 0 {
		t.Fatalf("widened run progress = %+v", prog3)
	}
}

func TestStreamProgressMonotone(t *testing.T) {
	var snaps []Progress
	r := Runner{OnProgress: func(p Progress) { snaps = append(snaps, p) }}
	_, _, err := r.Run(context.Background(), testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 4 {
		t.Fatalf("got %d progress snapshots, want 4", len(snaps))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != 4 {
			t.Fatalf("snapshot %d = %+v, want done=%d/4", i, p, i+1)
		}
	}
}

func TestRunFailsFastOnBadGrid(t *testing.T) {
	var r Runner
	if _, _, err := r.Run(context.Background(), NewGrid()); err == nil {
		t.Fatal("empty grid should fail fast")
	}
	// 9 convergecast sources cannot fit in a 3-node network.
	bad, err := ParseGrid("nodes=3 workload=convergecast flows=9")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Run(context.Background(), bad); err == nil {
		t.Fatal("unbuildable scenario should fail fast")
	}
}

// TestPrepareRejectsNonFiniteValues: NaN and Inf parse as floats, so they
// reach the facade, which must refuse them before any point runs or is
// cached.
func TestPrepareRejectsNonFiniteValues(t *testing.T) {
	for _, spec := range []string{
		"nodes=5 dur=2s field=NaN", "nodes=5 dur=2s rate=Inf",
		"bandwidth=NaN", "battery=Inf", "field=Inf topology=uniform",
	} {
		g, err := ParseGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Runner{}).Prepare(g); err == nil {
			t.Errorf("%q: Prepare accepted it", spec)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Workers: 1}
	results, prog, err := r.Run(ctx, testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	// A pre-cancelled context dispatches nothing (or aborts immediately);
	// whatever arrives must carry the cancellation, and nothing may hang.
	for _, sr := range results {
		if sr.Err == nil {
			t.Fatalf("point %d succeeded under a cancelled context", sr.Point.Index)
		}
	}
	if prog.Done != len(results) {
		t.Fatalf("progress done = %d, results = %d", prog.Done, len(results))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := testGrid(t)
	r := Runner{}
	results, _, err := r.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	header := CSVHeader(g)
	row := CSVRow(g, results[0])
	if len(header) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(header), len(row))
	}
	joined := strings.Join(header, ",")
	for _, col := range []string{"nodes", "seed", "fingerprint", "cached", "delivery_ratio", "energy_goodput_bit_per_j"} {
		if !strings.Contains(joined, col) {
			t.Errorf("header %q missing column %q", joined, col)
		}
	}
}
