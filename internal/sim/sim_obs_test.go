package sim

import (
	"context"
	"testing"
	"time"

	"eend/internal/obs"
)

// testCounters returns the kernel's counters on a registry of their own.
func testCounters() *Counters { return NewCounters(obs.NewRegistry()) }

// BenchmarkKernelTraced is the instrumented-kernel hot-path bench: one
// pooled event scheduled and fired per op with the event counter attached
// and a disabled tracer consulted around each event, the way instrumented
// call sites run in production with tracing off. Must report 0 allocs/op
// (also enforced by TestKernelTracedDoesNotAllocate and the bench-smoke
// CI gate on BENCH_kernel.json).
func BenchmarkKernelTraced(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	s.CountInto(testCounters())
	var tr *obs.Tracer // disabled: the production default
	n := 0
	var tick func()
	tick = func() {
		sp := tr.Start(obs.Span{}, "event", "")
		n++
		s.ScheduleFor(LayerMAC, time.Microsecond, tick)
		sp.End()
	}
	s.Schedule(0, tick)
	b.ResetTimer()
	s.Run(time.Duration(b.N) * time.Microsecond)
	if n < b.N {
		b.Fatalf("fired %d events, want >= %d", n, b.N)
	}
}

// TestKernelTracedDoesNotAllocate pins the hard constraint directly: the
// kernel hot path with a counter attached and a disabled tracer is
// allocation-free.
func TestKernelTracedDoesNotAllocate(t *testing.T) {
	s := New(1)
	s.CountInto(testCounters())
	var tr *obs.Tracer
	var tick func()
	tick = func() {
		sp := tr.Start(obs.Span{}, "event", "")
		s.ScheduleFor(LayerMAC, time.Microsecond, tick)
		sp.End()
	}
	s.Schedule(0, tick)
	// Warm the slab and heap so steady state is measured.
	s.Run(100 * time.Microsecond)
	horizon := s.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		horizon += time.Microsecond
		s.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("instrumented hot path allocates %v per event, want 0", allocs)
	}
}

// TestCountEventsMatchesFired checks, on every way out of RunContext, that
// the attached counters then equal the kernel's own tallies: each event and
// each timer is reported once, whichever path returned.
func TestCountEventsMatchesFired(t *testing.T) {
	const n = 3*ctxCheckBatch + 50 // three batch flushes and a remainder
	// Each case runs a simulator with n events a millisecond apart; inEvent
	// arranges a call inside the k-th, check compares counters and tallies.
	type arrange func(k int, fn func())
	for _, tc := range []struct {
		name string
		run  func(s *Simulator, inEvent arrange, check func(fired uint64))
	}{
		{"drain", func(s *Simulator, _ arrange, check func(uint64)) {
			s.Drain()
			check(n)
		}},
		{"until", func(s *Simulator, _ arrange, check func(uint64)) {
			s.Run(299 * time.Millisecond)
			check(300)
		}},
		{"stop", func(s *Simulator, inEvent arrange, check func(uint64)) {
			inEvent(400, s.Stop)
			s.Drain()
			check(400)
		}},
		{"cancelled before", func(s *Simulator, _ arrange, check func(uint64)) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.RunContext(ctx, time.Hour)
			check(0) // nothing fired, the n timers scheduled ahead are reported
		}},
		{"cancelled mid-run", func(s *Simulator, inEvent arrange, check func(uint64)) {
			ctx, cancel := context.WithCancel(context.Background())
			inEvent(300, cancel)
			s.RunContext(ctx, time.Hour)
			check(2 * ctxCheckBatch) // seen at the next batch boundary
		}},
		{"resumed", func(s *Simulator, inEvent arrange, check func(uint64)) {
			inEvent(400, s.Stop)
			s.Run(299 * time.Millisecond)
			check(300)
			s.Drain()
			check(400)
			s.Drain()
			check(n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(7)
			c := testCounters()
			s.CountInto(c)
			fired, calls := 0, map[int]func(){}
			for i := 0; i < n; i++ {
				s.ScheduleFor(Layer(i%int(NumLayers)), Time(i)*time.Millisecond, func() {
					if fired++; calls[fired] != nil {
						calls[fired]()
					}
				})
			}
			tc.run(s, func(k int, fn func()) { calls[k] = fn }, func(want uint64) {
				t.Helper()
				if s.Events() != want || c.Events.Value() != want {
					t.Fatalf("fired %d, counter %d, want %d", s.Events(), c.Events.Value(), want)
				}
				for l := Layer(0); l < NumLayers; l++ {
					if got, tally := c.Timers[l].Value(), s.Timers(l); got != tally || tally < n/uint64(NumLayers) {
						t.Fatalf("layer %d: counter %d, tally %d", l, got, tally)
					}
				}
			})
		})
	}
}

// TestCountsFlushInBatches is the proof that the hot loop has no per-event
// write to a shared counter: the attached counters stand still for a batch
// of ctxCheckBatch events, then jump by it. Timers scheduled ahead of the
// first RunContext (what coord.Start and src.Start do) are reported by it.
func TestCountsFlushInBatches(t *testing.T) {
	s := New(1)
	c := testCounters()
	s.CountInto(c)
	s.ScheduleFor(LayerTraffic, time.Hour, func() {}) // ahead of the run, never fires in it
	n := uint64(0)
	var tick func()
	tick = func() {
		n++
		// Inside event n, the counters show the batches complete before it.
		want := (n - 1) / ctxCheckBatch * ctxCheckBatch
		timers := want
		if want > 0 {
			timers++ // tick is scheduled once ahead of the run, then once per event
		}
		if c.Events.Value() != want || c.Timers[LayerMAC].Value() != timers {
			t.Fatalf("inside event %d: counters read %d events, %d mac timers, want %d, %d",
				n, c.Events.Value(), c.Timers[LayerMAC].Value(), want, timers)
		}
		if traffic := c.Timers[LayerTraffic].Value(); (traffic == 1) != (want > 0) {
			t.Fatalf("inside event %d: the timer scheduled ahead of the run reads %d", n, traffic)
		}
		s.ScheduleFor(LayerMAC, time.Microsecond, tick)
	}
	s.ScheduleFor(LayerMAC, 0, tick)
	s.Run(time.Duration(2*ctxCheckBatch+10) * time.Microsecond)
	if n != 2*ctxCheckBatch+11 {
		t.Fatalf("fired %d events", n)
	}
	if c.Events.Value() != s.Events() || c.Timers[LayerMAC].Value() != s.Timers(LayerMAC) || s.Timers(LayerMAC) != n+1 {
		t.Fatalf("after return: counters %d events, %d mac timers; kernel %d, %d",
			c.Events.Value(), c.Timers[LayerMAC].Value(), s.Events(), s.Timers(LayerMAC))
	}
}
