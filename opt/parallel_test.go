package opt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eend"
	"eend/internal/cache"
	"eend/internal/core"
	"eend/internal/eval"
	"eend/internal/exec"
)

// TestRestartDeterministicAcrossWorkers is the opt-layer fingerprint
// equality proof: a fixed-seed restart search produces an identical merged
// trajectory and final design fingerprint at every worker count.
func TestRestartDeterministicAcrossWorkers(t *testing.T) {
	p := clusteredProblem(t)
	run := func(workers int) *Result {
		res, err := p.Search(context.Background(), p.Analytic(), Options{
			Algorithm: Restart, Seed: 9, Iterations: 240, Restarts: 8,
			Workers: workers, Trace: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		if got.BestFingerprint != want.BestFingerprint {
			t.Fatalf("workers=%d: fingerprint %s != workers=1 %s", w, got.BestFingerprint, want.BestFingerprint)
		}
		if got.BestEnergy != want.BestEnergy || got.Iterations != want.Iterations ||
			got.Accepted != want.Accepted || got.Rejected != want.Rejected {
			t.Fatalf("workers=%d: summary %+v != workers=1 %+v", w, got, want)
		}
		if len(got.Trajectory) != len(want.Trajectory) {
			t.Fatalf("workers=%d: %d steps != %d", w, len(got.Trajectory), len(want.Trajectory))
		}
		for i := range want.Trajectory {
			if got.Trajectory[i] != want.Trajectory[i] {
				t.Fatalf("workers=%d: step %d %+v != %+v", w, i, got.Trajectory[i], want.Trajectory[i])
			}
		}
	}
	// The merged trajectory's best-so-far must be globally monotone.
	prev := want.Initial
	for i, s := range want.Trajectory {
		if s.Best > prev {
			t.Fatalf("step %d best %g rose above %g", i, s.Best, prev)
		}
		prev = s.Best
	}
}

// countingObjective counts evaluations around Analytic.
type countingObjective struct {
	p     *Problem
	evals atomic.Int32
}

func (c *countingObjective) Name() string { return "counting" }

func (c *countingObjective) Evaluate(_ context.Context, d *Design) (float64, error) {
	c.evals.Add(1)
	return c.p.Enetwork(d), nil
}

// TestRestartBudgetCapped: more restarts than iterations must not overrun
// the evaluation budget — the dispatch count is capped at Iterations.
func TestRestartBudgetCapped(t *testing.T) {
	p := clusteredProblem(t)
	obj := &countingObjective{p: p}
	res, err := p.Search(context.Background(), obj, Options{
		Algorithm: Restart, Seed: 1, Iterations: 10, Restarts: 500, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 10 {
		t.Fatalf("merged trajectory has %d iterations, budget was 10", res.Iterations)
	}
	// One extra evaluation is the shared initial design; everything else
	// must fit the budget.
	if n := int(obj.evals.Load()); n > 11 {
		t.Fatalf("%d evaluations for a 10-iteration budget", n)
	}
}

// TestRestartBudgetExact: the budget slices (with remainder spread) sum
// to exactly Iterations, so a full-length search neither overruns nor
// silently under-runs its reported total.
func TestRestartBudgetExact(t *testing.T) {
	p := clusteredProblem(t)
	obj := &countingObjective{p: p}
	// 7 restarts over 40 iterations: 5 restarts of 6, 2 of 5 — exactly 40
	// if no restart converges early; the cap is what this test pins.
	res, err := p.Search(context.Background(), obj, Options{
		Algorithm: Restart, Seed: 1, Iterations: 40, Restarts: 7, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 40 {
		t.Fatalf("merged trajectory has %d iterations, budget was 40", res.Iterations)
	}
	if n := int(obj.evals.Load()); n > 41 { // +1: the shared initial design
		t.Fatalf("%d evaluations for a 40-iteration budget", n)
	}
}

// TestSearchInsideSchedulerWorker: a restart search running as an item of
// the ambient scheduler (the batch-worker composition Options.Workers
// documents) must complete even on a one-worker pool — the search joins
// via Gather's help-first path instead of pinning the only worker on a
// Stream.
func TestSearchInsideSchedulerWorker(t *testing.T) {
	p := clusteredProblem(t)
	s := exec.New(1)
	ctx := exec.With(context.Background(), s)
	done := make(chan *Result, 1)
	go func() {
		rs := s.Gather(ctx, []exec.Item{{Index: 0, Do: func(ctx context.Context) (any, error) {
			return p.Search(ctx, p.Analytic(), Options{
				Algorithm: Restart, Seed: 3, Iterations: 60, Restarts: 4, // Workers 0: ambient scheduler
			})
		}}})
		if rs[0].Err != nil {
			t.Error(rs[0].Err)
			done <- nil
			return
		}
		done <- rs[0].Value.(*Result)
	}()
	select {
	case res := <-done:
		if res == nil || res.Best == nil {
			t.Fatalf("nested search returned %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restart search deadlocked inside a scheduler worker")
	}
}

// blockingObjective wraps Analytic with a gate so a test can hold
// evaluations open and cancel mid-restart.
type blockingObjective struct {
	p     *Problem
	gate  chan struct{}
	evals atomic.Int32
}

func (b *blockingObjective) Name() string { return "blocking" }

func (b *blockingObjective) Evaluate(ctx context.Context, d *Design) (float64, error) {
	if b.evals.Add(1) > 1 {
		// Later evaluations block until released or cancelled.
		select {
		case <-b.gate:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return b.p.Enetwork(d), nil
}

// TestRestartCancellationMidSearch: cancelling between restart work items
// returns the best-so-far alongside the error and leaks no goroutines —
// the satellite's mid-restart coverage.
func TestRestartCancellationMidSearch(t *testing.T) {
	base := runtime.NumGoroutine()
	p := clusteredProblem(t)
	obj := &blockingObjective{p: p, gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = p.Search(ctx, obj, Options{
			Algorithm: Restart, Seed: 2, Iterations: 400, Restarts: 6, Workers: 2,
		})
	}()
	// The initial evaluation passes; restarts then block on the gate.
	for obj.evals.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cancelled restart search did not return")
	}
	if err == nil {
		t.Fatal("cancelled search returned nil error")
	}
	if res == nil || res.Best == nil || res.BestFingerprint == "" {
		t.Fatalf("cancelled search lost its best-so-far: %+v", res)
	}
	close(obj.gate)
	settleGoroutines(t, base)
}

// settleGoroutines waits for the goroutine count to come back near base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSimulatedConcurrentSingleFlight is the acceptance check at the
// objective layer: concurrent evaluations of one fingerprint perform
// exactly one simulator invocation; followers read as cache hits.
func TestSimulatedConcurrentSingleFlight(t *testing.T) {
	p := simProblem(t)
	sim, err := p.Simulated(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var invocations atomic.Int32
	release := make(chan struct{})
	defer func() { eval.OnSimulate = nil }()
	eval.OnSimulate = func(*eend.Scenario) {
		invocations.Add(1)
		<-release
	}
	d, err := p.SolveApproach(core.IdleFirst)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	energies := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := sim.Evaluate(context.Background(), d)
			if err != nil {
				t.Error(err)
			}
			energies[i] = e
		}()
	}
	// Wait for the leader to enter the simulator, give followers time to
	// join its flight, then release.
	for invocations.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := invocations.Load(); n != 1 {
		t.Fatalf("%d simulator invocations for one in-flight fingerprint, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if energies[i] != energies[0] {
			t.Fatalf("caller %d scored %g, caller 0 %g", i, energies[i], energies[0])
		}
	}
	st := sim.Stats()
	if st.Evals != callers || st.SimRuns != 1 || st.CacheHits != callers-1 {
		t.Fatalf("stats = %+v, want %d evals, 1 run, %d hits", st, callers, callers-1)
	}
}

// blockSims makes every in-process simulation wait for release, counting
// the simulations started; restored on test cleanup.
func blockSims(t *testing.T) (started *atomic.Int32, release chan struct{}) {
	t.Helper()
	started, release = new(atomic.Int32), make(chan struct{})
	eval.OnSimulate = func(*eend.Scenario) {
		started.Add(1)
		<-release
	}
	t.Cleanup(func() { eval.OnSimulate = nil })
	return started, release
}

// waitEvals waits until sim has counted n evaluations: an evaluation joins
// a call in flight under the same lock that counts it.
func waitEvals(t *testing.T, sim *Simulated, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sim.Stats().Evals < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d evaluations started, want %d", sim.Stats().Evals, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimulatedCancelledFollower: an evaluation joining a long run in
// flight returns promptly with its own ctx's error when that is cancelled,
// counts no hit, and leaves the run to its leader.
func TestSimulatedCancelledFollower(t *testing.T) {
	p := simProblem(t)
	sim, err := p.Simulated(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.SolveApproach(core.IdleFirst)
	if err != nil {
		t.Fatal(err)
	}
	started, release := blockSims(t)
	leader := make(chan error, 1)
	go func() {
		_, err := sim.Evaluate(context.Background(), d)
		leader <- err
	}()
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for sim.Stats().Evals < 2 { // the follower below has joined
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	begin := time.Now()
	if _, err := sim.Evaluate(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
	}
	if time.Since(begin) > 5*time.Second {
		t.Fatal("cancelled follower did not return promptly")
	}
	if st := sim.Stats(); st.CacheHits != 0 {
		t.Fatalf("stats = %+v: a cancelled follower counted a hit", st)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if st := sim.Stats(); st.Evals != 2 || st.SimRuns != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 evals, 1 run, 0 hits", st)
	}
}

// putPanics is a store whose Put panics while armed.
type putPanics struct {
	cache.Store
	armed atomic.Bool
}

func (s *putPanics) Put(key string, value []byte) error {
	if s.armed.Load() {
		panic("cache: disk on fire")
	}
	return s.Store.Put(key, value)
}

// TestSimulatedLeaderPanicReleasesFollowers: a leader whose store write
// panics takes its panic to its own caller, releases the evaluations that
// joined it with an error, and leaves nothing behind: the next Evaluate of
// the fingerprint simulates again.
func TestSimulatedLeaderPanicReleasesFollowers(t *testing.T) {
	p := simProblem(t)
	store := &putPanics{Store: cache.NewMem()}
	store.armed.Store(true)
	sim, err := p.Simulated(SimConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.SolveApproach(core.IdleFirst)
	if err != nil {
		t.Fatal(err)
	}
	started, release := blockSims(t)
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		sim.Evaluate(context.Background(), d)
	}()
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const followers = 2
	errs := make(chan error, followers)
	for range followers {
		go func() {
			_, err := sim.Evaluate(context.Background(), d)
			errs <- err
		}()
	}
	waitEvals(t, sim, 1+followers)
	close(release)
	if v := <-leader; v != "cache: disk on fire" {
		t.Fatalf("leader recovered %v, want the store's panic", v)
	}
	for range followers {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("follower error = %v, want the leader's panic", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("follower still waiting on a leader that panicked")
		}
	}
	store.armed.Store(false)
	if _, err := sim.Evaluate(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if n := started.Load(); n != 2 {
		t.Fatalf("%d simulations, want the panicked one and a fresh one", n)
	}
	if st := sim.Stats(); st.Evals != 2+followers || st.SimRuns != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want %d evals, 1 run, 0 hits", st, 2+followers)
	}
}

// TestParallelRestartSimReplicated is the deepest composition the runtime
// supports: parallel restarts, each evaluating candidates through the
// Simulated objective's single-flight, each evaluation fanning replicates
// out on the same scheduler. Restarts overlapping on a candidate while
// its leader is mid-replicate is exactly the cross-flight cycle the
// scheduler's own-children-only help rule exists to prevent; the search
// must complete, deterministically.
func TestParallelRestartSimReplicated(t *testing.T) {
	p := simProblem(t)
	run := func(workers int) *Result {
		sim, err := p.Simulated(SimConfig{Replicates: 2})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Result, 1)
		go func() {
			res, err := p.Search(context.Background(), sim, Options{
				Algorithm: Restart, Seed: 4, Iterations: 24, Restarts: 4, Workers: workers,
			})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res == nil {
				t.FailNow()
			}
			return res
		case <-time.After(60 * time.Second):
			t.Fatalf("workers=%d: replicated sim restart search deadlocked", workers)
			return nil
		}
	}
	seq := run(1)
	par := run(4)
	if par.BestFingerprint != seq.BestFingerprint || par.BestEnergy != seq.BestEnergy {
		t.Fatalf("replicated sim search diverged: %s/%g vs %s/%g",
			par.BestFingerprint, par.BestEnergy, seq.BestFingerprint, seq.BestEnergy)
	}
}

// TestParallelRestartSimNoDuplicateRuns: a parallel restart search under
// the Simulated objective must never simulate one fingerprint twice —
// memoization catches revisits, single-flight catches concurrent ones —
// and must land on the workers=1 design.
func TestParallelRestartSimNoDuplicateRuns(t *testing.T) {
	p := simProblem(t)
	defer func() { eval.OnSimulate = nil }()
	var mu sync.Mutex
	runs := make(map[string]int)
	eval.OnSimulate = func(sc *eend.Scenario) {
		mu.Lock()
		runs[sc.Fingerprint()]++
		mu.Unlock()
	}
	search := func(workers int) (*Result, map[string]int) {
		mu.Lock()
		runs = make(map[string]int)
		mu.Unlock()
		sim, err := p.Simulated(SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Search(context.Background(), sim, Options{
			Algorithm: Restart, Seed: 4, Iterations: 24, Restarts: 4, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		mu.Lock()
		defer mu.Unlock()
		return res, runs
	}
	seq, _ := search(1)
	par, parRuns := search(4)
	for fp, n := range parRuns {
		if n > 1 {
			t.Fatalf("fingerprint %s simulated %d times under parallel restarts", fp, n)
		}
	}
	if par.BestFingerprint != seq.BestFingerprint || par.BestEnergy != seq.BestEnergy {
		t.Fatalf("parallel sim search diverged: %s/%g vs %s/%g",
			par.BestFingerprint, par.BestEnergy, seq.BestFingerprint, seq.BestEnergy)
	}
}
