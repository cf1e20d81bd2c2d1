// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order, which makes runs
// bit-reproducible for a fixed seed. All randomness used by higher layers
// must come from the simulator's RNG so that a Scenario seed fully
// determines the outcome.
//
// # Engine internals
//
// The queue is allocation-free on the steady-state hot path. Events live in
// a value-based slab ([]event) threaded with a free list, so scheduling a
// new event reuses the slot of a fired one instead of heap-allocating; the
// priority queue itself is a hand-rolled 4-ary heap of int32 slot indices
// (no interface boxing, no pointer chasing across the heap array). Timer
// handles are small values carrying a slot index and a generation counter:
// a slot's generation is bumped every time it is recycled, so a stale
// handle to a fired or cancelled event can never reach a reused slot.
// Cancel removes the event from the heap immediately — O(log n) via the
// heap position each slab slot maintains — so cancelled events never linger
// in the queue and Pending is an exact live count.
//
// # Determinism contract
//
// Events are totally ordered by (time, schedule sequence); the sequence
// number is unique, so the firing order is independent of the heap's
// internal shape. Swapping the binary container/heap kernel for this slab
// engine therefore changes no simulation outcome: fixed-seed runs are
// bit-identical (pinned by the golden fingerprint tests in the eend root
// package and the differential test in this package).
package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"eend/internal/obs"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// event is one slab slot. While queued, pos is the slot's index in the
// 4-ary heap (kept current by every sift, which is what makes Cancel's
// O(log n) removal possible); while the slot sits on the free list, pos is
// reused as the next-free link.
type event struct {
	at  Time
	seq uint64
	fn  func()
	gen uint32
	pos int32
}

// freeEnd terminates the slab's free list.
const freeEnd = -1

// heapArity is the fan-out of the event heap. Four children per node
// halves the tree depth of a binary heap and keeps each node's children in
// one cache line of the index array.
const heapArity = 4

// Timer is a value handle to a scheduled event. The zero Timer is valid
// and behaves like a handle to an already-fired event: Pending is false,
// Cancel is a no-op, At is zero.
type Timer struct {
	s    *Simulator
	slot int32
	gen  uint32
	at   Time
}

// Cancel stops the timer, removing the event from the queue immediately.
// Cancelling an already-fired or already-cancelled timer is a no-op.
// Cancel reports whether the event was still pending.
func (t Timer) Cancel() bool {
	if t.s == nil {
		return false
	}
	return t.s.cancel(t.slot, t.gen)
}

// Pending reports whether the timer has neither fired nor been cancelled.
func (t Timer) Pending() bool {
	return t.s != nil && t.s.slab[t.slot].gen == t.gen
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t Timer) At() Time { return t.at }

// Simulator is a single-threaded discrete-event scheduler.
type Simulator struct {
	now  Time
	seq  uint64
	slab []event // event storage; slots are recycled through free
	free int32   // head of the free-slot list (freeEnd: none)
	heap []int32 // 4-ary min-heap of slab indices ordered by (at, seq)

	rng     *rand.Rand
	stopped bool

	// Tallies only this simulator writes. The attached process-wide counters
	// get the difference to flushed* once per ctxCheckBatch events and when
	// RunContext returns: runs side by side share no cache line per event.
	fired, flushedFired   uint64
	timers, flushedTimers [NumLayers]uint64
	counts                *Counters
}

// Layer tags a timer with the protocol layer that scheduled it
// (ScheduleFor, Timers); bottom of the stack first.
type Layer uint8

const (
	LayerPhy Layer = iota
	LayerMAC
	LayerPower
	LayerRouting
	LayerTraffic
	NumLayers
)

// Counters are the metrics a simulator reports its tallies to (CountInto).
type Counters struct {
	Events *obs.Counter            // events fired
	Timers [NumLayers]*obs.Counter // timers scheduled, by layer
}

// NewCounters registers the kernel's two metric families on r.
func NewCounters(r *obs.Registry) *Counters {
	c := &Counters{Events: r.Counter("eend_sim_events_total", "Events fired by the sim kernel.")}
	for l, name := range [NumLayers]string{LayerPhy: "phy", LayerMAC: "mac", LayerPower: "power", LayerRouting: "routing", LayerTraffic: "traffic"} {
		c.Timers[l] = r.Counter("eend_sim_timers_total",
			"Timers scheduled in the sim kernel, by protocol layer.", obs.L("layer", name))
	}
	return c
}

// New returns a simulator whose RNG is seeded from seed.
func New(seed uint64) *Simulator {
	return &Simulator{
		free: freeEnd,
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// RNG returns the simulation-owned random source. All model randomness must
// be drawn from it to keep runs reproducible.
func (s *Simulator) RNG() *rand.Rand { return s.rng }

// Events returns the number of events fired so far.
func (s *Simulator) Events() uint64 { return s.fired }

// Pending returns the number of events still queued. Cancelled events are
// removed from the queue at Cancel time, so the count is exact.
func (s *Simulator) Pending() int { return len(s.heap) }

// Timers returns the number of timers layer l has scheduled, fired or not.
func (s *Simulator) Timers(l Layer) uint64 { return s.timers[l] }

// CountInto attaches the metric counters that receive the kernel's tallies
// (all that is not yet flushed: attach before scheduling), feeding /metrics.
// They lag a live run by at most ctxCheckBatch events and are exact once
// RunContext has returned. Counting never touches simulation state, so an
// observed run stays bit-identical to an unobserved one.
func (s *Simulator) CountInto(c *Counters) { s.counts = c }

// flushCounts reports what was tallied since the last flush.
func (s *Simulator) flushCounts() {
	if c := s.counts; c != nil {
		c.Events.Add(s.fired - s.flushedFired)
		for l, t := range c.Timers {
			if d := s.timers[l] - s.flushedTimers[l]; d != 0 {
				t.Add(d)
			}
		}
	}
	s.flushedFired, s.flushedTimers = s.fired, s.timers
}

// ScheduleFor and ScheduleAtFor are Schedule and ScheduleAt, tallied as a
// timer of layer l.
func (s *Simulator) ScheduleFor(l Layer, delay Time, fn func()) Timer {
	s.timers[l]++
	return s.Schedule(delay, fn)
}

func (s *Simulator) ScheduleAtFor(l Layer, at Time, fn func()) Timer {
	s.timers[l]++
	return s.ScheduleAt(at, fn)
}

// Schedule runs fn after delay of virtual time. A negative delay is an error
// in the model; it panics to surface the bug immediately.
func (s *Simulator) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Steady state it performs
// no heap allocation: the event reuses a recycled slab slot and the
// returned Timer is a plain value.
func (s *Simulator) ScheduleAt(at Time, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", at, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var slot int32
	if s.free != freeEnd {
		slot = s.free
		s.free = s.slab[slot].pos
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, event{})
	}
	ev := &s.slab[slot]
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.heap = append(s.heap, slot)
	s.siftUp(len(s.heap) - 1)
	return Timer{s: s, slot: slot, gen: ev.gen, at: at}
}

// less orders two slab slots by (at, seq). seq is unique, so this is a
// total order and the firing sequence does not depend on heap shape.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.slab[a], &s.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores the heap invariant for the element at index i by moving
// it toward the root, updating slab positions as it goes.
func (s *Simulator) siftUp(i int) {
	h := s.heap
	slot := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !s.less(slot, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slab[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = slot
	s.slab[slot].pos = int32(i)
}

// siftDown restores the heap invariant for the element at index i by moving
// it toward the leaves.
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	slot := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		s.slab[h[i]].pos = int32(i)
		i = best
	}
	h[i] = slot
	s.slab[slot].pos = int32(i)
}

// removeAt deletes the heap element at index i, preserving the invariant.
func (s *Simulator) removeAt(i int) {
	h := s.heap
	n := len(h) - 1
	if i == n {
		s.heap = h[:n]
		return
	}
	moved := h[n]
	h[i] = moved
	s.slab[moved].pos = int32(i)
	s.heap = h[:n]
	s.siftDown(i)
	if s.heap[i] == moved {
		s.siftUp(i)
	}
}

// freeSlot recycles a slab slot: the generation bump invalidates every
// outstanding Timer handle to it before it can be reused.
func (s *Simulator) freeSlot(slot int32) {
	ev := &s.slab[slot]
	ev.gen++
	ev.fn = nil
	ev.pos = s.free
	s.free = slot
}

// cancel implements Timer.Cancel.
func (s *Simulator) cancel(slot int32, gen uint32) bool {
	ev := &s.slab[slot]
	if ev.gen != gen {
		return false
	}
	s.removeAt(int(ev.pos))
	s.freeSlot(slot)
	return true
}

// Stop halts Run after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue empties or virtual time would exceed
// until. It returns the virtual time at which it stopped.
func (s *Simulator) Run(until Time) Time {
	now, _ := s.RunContext(context.Background(), until)
	return now
}

// ctxCheckBatch is how many events fire between context checks, and count
// flushes, in RunContext. Large enough that both are free next to event work,
// small enough that cancellation lands within microseconds of wall time.
const ctxCheckBatch = 256

// RunContext executes events like Run but polls ctx once per batch of
// events. When ctx is cancelled it stops between events and returns the
// context's error with the virtual time reached; the queue is left intact,
// so the caller can inspect or resume the partial run.
func (s *Simulator) RunContext(ctx context.Context, until Time) (Time, error) {
	defer s.flushCounts()
	done := ctx.Done() // nil, and as a channel never ready, when ctx cannot be cancelled
	select {
	case <-done:
		return s.now, ctx.Err()
	default:
	}
	s.stopped = false
	for batch := 0; len(s.heap) > 0 && !s.stopped; batch++ { // batch: events fired since the last check
		top := s.heap[0]
		at := s.slab[top].at
		if at > until {
			break
		}
		if batch == ctxCheckBatch {
			batch = 0
			s.flushCounts()
			select {
			case <-done:
				return s.now, ctx.Err()
			default:
			}
		}
		s.removeAt(0)
		fn := s.slab[top].fn
		// Recycle before firing so that, inside its own callback, the
		// event reads as no longer pending (and a Timer reschedule there
		// can reuse the slot).
		s.freeSlot(top)
		s.now = at
		s.fired++
		fn()
	}
	if s.now < until {
		s.now = until
	}
	return s.now, nil
}

// Drain executes all remaining events regardless of time. Intended for tests.
func (s *Simulator) Drain() {
	s.Run(Time(1<<62 - 1))
}
