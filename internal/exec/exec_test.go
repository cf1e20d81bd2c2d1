package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

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
	var wg sync.WaitGroup
	wg.Add(3)
	occupied := make(chan struct{})
	go func() {
		defer wg.Done()
		s.Gather(context.Background(), []Item{{Index: 0, Do: func(context.Context) (any, error) {
			close(occupied)
			<-block
			return nil, nil
		}}})
	}()
	<-occupied
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
	wg.Wait()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("dispatch order = %v, want nested-priority item first", order)
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
		var wg sync.WaitGroup
		wg.Add(2)
		for range 2 { // one join on the caller, one on a goroutine of its own
			go func() {
				defer wg.Done()
				s.Gather(context.Background(), items)
			}()
		}
		s.Gather(context.Background(), items)
		wg.Wait()
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
// scheduler stays usable, with a nested child panicking under a helping
// parent as well.
func TestPanickingItemFailsAlone(t *testing.T) {
	s := New(2)
	items := make([]Item, 6)
	for i := range items {
		items[i] = Item{Index: i, Do: func(ctx context.Context) (any, error) {
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
	for _, r := range s.Gather(With(context.Background(), s), items) {
		switch r.Index {
		case 2:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "phy: unknown node 7") {
				t.Errorf("panicking item's error = %v, want the panic value", r.Err)
			}
		case 4:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "nested boom") {
				t.Errorf("parent of a panicking child got %v, want the child's panic", r.Err)
			}
		default:
			if r.Err != nil || r.Value != r.Index {
				t.Errorf("healthy item %d = (%v, %v)", r.Index, r.Value, r.Err)
			}
		}
	}
}
