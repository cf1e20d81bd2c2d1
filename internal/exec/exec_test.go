package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect drains a Stream channel into a slice.
func collect(ch <-chan Result) []Result {
	var out []Result
	for r := range ch {
		out = append(out, r)
	}
	return out
}

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1 << 20); got != MaxWorkers {
		t.Fatalf("Workers(huge) = %d, want cap %d", got, MaxWorkers)
	}
}

func TestGatherOrderedMerge(t *testing.T) {
	s := New(4)
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) {
			return i * i, nil
		}}
	}
	rs := s.Gather(context.Background(), items)
	for i, r := range rs {
		if r.Index != i || r.Err != nil || r.Value.(int) != i*i {
			t.Fatalf("result %d = %+v, want value %d in order", i, r, i*i)
		}
	}
}

// TestGatherDeterministicAcrossWorkerCounts pins the runtime's core
// promise: the merged result set is identical at any worker count.
func TestGatherDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		s := New(workers)
		items := make([]Item, 32)
		for i := range items {
			items[i] = Item{Index: i, Do: func(context.Context) (any, error) { return 7*i + 1, nil }}
		}
		rs := s.Gather(context.Background(), items)
		out := make([]int, len(rs))
		for i, r := range rs {
			out[i] = r.Value.(int)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestStreamDeliversEverything(t *testing.T) {
	s := New(3)
	items := make([]Item, 17)
	for i := range items {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) { return i, nil }}
	}
	rs := collect(s.Stream(context.Background(), items))
	if len(rs) != len(items) {
		t.Fatalf("delivered %d results, want %d", len(rs), len(items))
	}
	seen := make(map[int]bool)
	for _, r := range rs {
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if r.Value.(int) != r.Index {
			t.Fatalf("index %d carried value %v", r.Index, r.Value)
		}
	}
}

// TestStreamBoundedBuffer pins the satellite fix: the channel buffer no
// longer scales with the submission size.
func TestStreamBoundedBuffer(t *testing.T) {
	s := New(2)
	items := make([]Item, 1000)
	for i := range items {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) { return nil, nil }}
	}
	ch := s.Stream(context.Background(), items)
	if c := cap(ch); c > streamBuffer {
		t.Fatalf("stream channel buffer = %d, want <= %d", c, streamBuffer)
	}
	if got := len(collect(ch)); got != 1000 {
		t.Fatalf("delivered %d, want 1000 despite the bounded buffer", got)
	}
}

// TestStreamSlowConsumerDoesNotBlockWorkers: with a single worker and a
// consumer that reads nothing until the end, every item must still run.
func TestStreamSlowConsumerDoesNotBlockWorkers(t *testing.T) {
	s := New(1)
	var ran atomic.Int32
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	ch := s.Stream(context.Background(), items)
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/100 items ran while the consumer was away", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(collect(ch)); got != 100 {
		t.Fatalf("delivered %d, want 100", got)
	}
}

func TestPriorityOrdersDispatch(t *testing.T) {
	s := New(1)
	block := make(chan struct{})
	var order []int
	var mu sync.Mutex
	record := func(id int) func(context.Context) (any, error) {
		return func(context.Context) (any, error) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil, nil
		}
	}
	// Occupy the single worker so later submissions queue behind it.
	gate := s.Stream(context.Background(), []Item{{Index: 0, Do: func(context.Context) (any, error) {
		<-block
		return nil, nil
	}}})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Gather(context.Background(), []Item{{Index: 0, Nested: false, Do: record(1)}})
	}()
	// Give the first submission time to land in the queue, then jump it.
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer wg.Done()
		s.Gather(context.Background(), []Item{{Index: 0, Nested: true, Do: record(2)}})
	}()
	time.Sleep(20 * time.Millisecond)
	close(block)
	collect(gate)
	wg.Wait()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("dispatch order = %v, want nested-priority item first", order)
	}
}

func TestFlightGroup(t *testing.T) {
	var f Flight
	var invocations atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := f.DoContext(context.Background(), "k", func() (any, error) {
				invocations.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				panic("bad flight value")
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait for the leader to start, then let stragglers join its flight.
	for invocations.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if invocations.Load() != 1 {
		t.Fatalf("%d invocations, want 1", invocations.Load())
	}
	if sharedCount.Load() != 4 {
		t.Fatalf("%d shared, want 4", sharedCount.Load())
	}
	// The key is forgotten after completion: a fresh call runs again.
	_, _, shared := f.DoContext(context.Background(), "k", func() (any, error) { return 1, nil })
	if shared {
		t.Fatal("completed flight still coalescing")
	}
}

// TestNestedGatherNoDeadlock: every worker fans out again; the pool must
// finish via help-mode joins even at one worker.
func TestNestedGatherNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		s := New(workers)
		outer := make([]Item, 6)
		for i := range outer {
			outer[i] = Item{Index: i, Do: func(ctx context.Context) (any, error) {
				inner := make([]Item, 4)
				for k := range inner {
					inner[k] = Item{Index: k, Nested: true, Do: func(context.Context) (any, error) {
						return k + 100*i, nil
					}}
				}
				sum := 0
				for _, r := range From(ctx).Gather(ctx, inner) {
					if r.Err != nil {
						return nil, r.Err
					}
					sum += r.Value.(int)
				}
				return sum, nil
			}}
		}
		done := make(chan []Result, 1)
		ctx := With(context.Background(), s)
		go func() { done <- s.Gather(ctx, outer) }()
		select {
		case rs := <-done:
			for i, r := range rs {
				want := 4*100*i + 6
				if r.Err != nil || r.Value.(int) != want {
					t.Fatalf("workers=%d: outer %d = %+v, want %d", workers, i, r, want)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested fan-out deadlocked", workers)
		}
	}
}

func TestGatherCancellationMarksSkipped(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	items := []Item{
		{Index: 0, Do: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Index: 1, Do: func(context.Context) (any, error) { return "ran", nil }},
	}
	go func() {
		<-started
		cancel()
	}()
	rs := s.Gather(ctx, items)
	if rs[0].Skipped || !errors.Is(rs[0].Err, context.Canceled) {
		t.Fatalf("started item = %+v, want mid-run cancellation error", rs[0])
	}
	if !rs[1].Skipped || !errors.Is(rs[1].Err, context.Canceled) {
		t.Fatalf("queued item = %+v, want Skipped", rs[1])
	}
}

func TestStreamCancellationDropsUndispatched(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	items := make([]Item, 10)
	items[0] = Item{Index: 0, Do: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	for i := 1; i < 10; i++ {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) { return nil, nil }}
	}
	go func() {
		<-started
		cancel()
	}()
	rs := collect(s.Stream(ctx, items))
	// Only the started item may appear; the other nine were skipped. (The
	// single worker guarantees none of them started before the cancel.)
	if len(rs) != 1 || rs[0].Index != 0 || rs[0].Err == nil {
		t.Fatalf("stream after cancel = %+v, want just the in-flight failure", rs)
	}
}

// TestNoGoroutineLeak: after submissions finish, the pool drains to zero
// workers.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(8)
	for round := 0; round < 5; round++ {
		items := make([]Item, 50)
		for i := range items {
			items[i] = Item{Index: i, Do: func(context.Context) (any, error) { return nil, nil }}
		}
		s.Gather(context.Background(), items)
		collect(s.Stream(context.Background(), items))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after idle", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDefaultSchedulerFromContext(t *testing.T) {
	if From(context.Background()) != Default() {
		t.Fatal("bare context should resolve to the default scheduler")
	}
	s := New(2)
	if From(With(context.Background(), s)) != s {
		t.Fatal("With-installed scheduler not returned by From")
	}
}

func TestGatherEmpty(t *testing.T) {
	s := New(4)
	if rs := s.Gather(context.Background(), nil); len(rs) != 0 {
		t.Fatalf("empty gather returned %v", rs)
	}
	if rs := collect(s.Stream(context.Background(), nil)); len(rs) != 0 {
		t.Fatalf("empty stream returned %v", rs)
	}
}

// TestErrorsPropagatePerItem: one failing item does not poison the rest.
func TestErrorsPropagatePerItem(t *testing.T) {
	s := New(4)
	boom := errors.New("boom")
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Index: i, Do: func(context.Context) (any, error) {
			if i == 3 {
				return nil, boom
			}
			return i, nil
		}}
	}
	rs := s.Gather(context.Background(), items)
	for i, r := range rs {
		if i == 3 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("item 3 err = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value.(int) != i {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
}

// TestPanickingItemFailsAlone: a panic in one item's Do becomes that item's
// error, with the panic value in the text; its siblings still run and the
// scheduler stays usable. Gather and Stream both, with a nested child
// panicking under a helping parent as well.
func TestPanickingItemFailsAlone(t *testing.T) {
	s := New(2)
	items := func() []Item {
		out := make([]Item, 6)
		for i := range out {
			out[i] = Item{Index: i, Do: func(ctx context.Context) (any, error) {
				switch i {
				case 2:
					panic("phy: unknown node 7")
				case 4:
					rs := From(ctx).Gather(ctx, []Item{{Index: 0, Nested: true, Do: func(context.Context) (any, error) {
						panic("nested boom")
					}}})
					return nil, rs[0].Err
				}
				return i, nil
			}}
		}
		return out
	}
	check := func(how string, rs []Result) {
		t.Helper()
		if len(rs) != 6 {
			t.Fatalf("%s: %d results, want 6", how, len(rs))
		}
		for _, r := range rs {
			switch r.Index {
			case 2:
				if r.Err == nil || !strings.Contains(r.Err.Error(), "phy: unknown node 7") {
					t.Errorf("%s: panicking item's error = %v, want the panic value", how, r.Err)
				}
			case 4:
				if r.Err == nil || !strings.Contains(r.Err.Error(), "nested boom") {
					t.Errorf("%s: parent of a panicking child got %v, want the child's panic", how, r.Err)
				}
			default:
				if r.Err != nil || r.Value != r.Index {
					t.Errorf("%s: healthy item %d = (%v, %v)", how, r.Index, r.Value, r.Err)
				}
			}
		}
	}
	ctx := With(context.Background(), s)
	check("Gather", s.Gather(ctx, items()))
	check("Stream", collect(s.Stream(ctx, items())))
}
