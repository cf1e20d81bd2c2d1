package phy

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
	"eend/internal/sim"
)

// stubNode records medium callbacks.
type stubNode struct {
	id      int
	pos     geom.Point
	deaf    bool // CanReceive == false
	began   []*Frame
	ended   []*Frame
	endedOK []bool
}

func (n *stubNode) NodeID() int      { return n.id }
func (n *stubNode) Pos() geom.Point  { return n.pos }
func (n *stubNode) CanReceive() bool { return !n.deaf }
func (n *stubNode) RxBegin(f *Frame) { n.began = append(n.began, f) }
func (n *stubNode) RxEnd(f *Frame, ok bool) {
	n.ended = append(n.ended, f)
	n.endedOK = append(n.endedOK, ok)
}

func newTestMedium(s *sim.Simulator) *Medium {
	return NewMedium(s, Config{RangeAt: radio.Cabletron.RangeAt})
}

func TestAirtime(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	// 128 B at 2 Mbit/s = 512 us + 192 us preamble.
	got := m.Airtime(128)
	want := 192*time.Microsecond + 512*time.Microsecond
	if got != want {
		t.Fatalf("Airtime(128) = %v, want %v", got, want)
	}
}

func TestDeliveryWithinRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	far := &stubNode{id: 2, pos: geom.Point{X: 1000, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(far)

	f := &Frame{Src: 0, Dst: 1, Bytes: 100, Power: radio.Cabletron.MaxTxPower()}
	m.Transmit(f)
	s.Run(time.Second)

	if len(b.began) != 1 || len(b.ended) != 1 || !b.endedOK[0] {
		t.Fatalf("in-range node: began=%d ended=%d ok=%v", len(b.began), len(b.ended), b.endedOK)
	}
	if len(far.began) != 0 {
		t.Fatal("out-of-range node received frame")
	}
	if len(a.began) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestOverhearing(t *testing.T) {
	// A frame addressed to b is also heard by bystander c in range.
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	c := &stubNode{id: 2, pos: geom.Point{X: 0, Y: 100}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)

	m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 50, Power: radio.Cabletron.MaxTxPower()})
	s.Run(time.Second)
	if len(c.began) != 1 || !c.endedOK[0] {
		t.Fatal("bystander in range should overhear the frame")
	}
}

func TestReducedPowerShrinksRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 200, Y: 0}}
	m.Attach(a)
	m.Attach(b)

	low := radio.Cabletron.TxPower(100) // reaches 100 m only
	m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 50, Power: low})
	s.Run(time.Second)
	if len(b.began) != 0 {
		t.Fatal("node at 200 m received frame sent with 100 m power")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 200, Y: 0}}
	c := &stubNode{id: 2, pos: geom.Point{X: 100, Y: 0}} // hears both
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)

	pw := radio.Cabletron.TxPower(150)
	s.Schedule(0, func() { m.Transmit(&Frame{Src: 0, Dst: 2, Bytes: 200, Power: pw}) })
	s.Schedule(100*time.Microsecond, func() {
		m.Transmit(&Frame{Src: 1, Dst: 2, Bytes: 200, Power: pw})
	})
	s.Run(time.Second)

	if len(c.ended) != 2 {
		t.Fatalf("c ended %d receptions, want 2", len(c.ended))
	}
	for i, ok := range c.endedOK {
		if ok {
			t.Errorf("reception %d should have collided", i)
		}
	}
}

func TestNoCollisionWhenDisjointInTime(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(a)
	m.Attach(b)

	pw := radio.Cabletron.MaxTxPower()
	s.Schedule(0, func() { m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 50, Power: pw}) })
	s.Schedule(100*time.Millisecond, func() {
		m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 50, Power: pw})
	})
	s.Run(time.Second)
	if len(b.ended) != 2 || !b.endedOK[0] || !b.endedOK[1] {
		t.Fatalf("sequential frames should both arrive: ok=%v", b.endedOK)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// a and c cannot hear each other but both reach b: classic hidden
	// terminal. Simultaneous transmissions must collide at b.
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 200, Y: 0}}
	c := &stubNode{id: 2, pos: geom.Point{X: 400, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)

	pw := radio.Cabletron.MaxTxPower() // 250 m
	s.Schedule(0, func() {
		m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 100, Power: pw})
		m.Transmit(&Frame{Src: 2, Dst: 1, Bytes: 100, Power: pw})
	})
	s.Run(time.Second)
	if len(b.ended) != 2 {
		t.Fatalf("b should see both frames, got %d", len(b.ended))
	}
	if b.endedOK[0] || b.endedOK[1] {
		t.Fatal("hidden-terminal frames must collide at b")
	}
}

func TestDeafListenerMissesFrame(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}, deaf: true}
	m.Attach(a)
	m.Attach(b)
	m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 50, Power: radio.Cabletron.MaxTxPower()})
	s.Run(time.Second)
	if len(b.began) != 0 {
		t.Fatal("sleeping/transmitting node must not receive")
	}
}

func TestTransmitterAbortsItsReceptions(t *testing.T) {
	// b starts receiving from a, then b itself transmits: the reception at b
	// must be corrupted.
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(a)
	m.Attach(b)

	pw := radio.Cabletron.MaxTxPower()
	s.Schedule(0, func() { m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 500, Power: pw}) })
	s.Schedule(50*time.Microsecond, func() {
		m.Transmit(&Frame{Src: 1, Dst: 0, Bytes: 50, Power: pw})
	})
	s.Run(time.Second)
	if len(b.ended) != 1 {
		t.Fatalf("b.ended = %d, want 1", len(b.ended))
	}
	if b.endedOK[0] {
		t.Fatal("reception must be corrupted when receiver turns transmitter")
	}
}

func TestBusyAndBusyUntil(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	far := &stubNode{id: 2, pos: geom.Point{X: 1000, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(far)

	if m.Busy(1) {
		t.Fatal("channel should start clear")
	}
	var end sim.Time
	s.Schedule(0, func() {
		end = m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 1000, Power: radio.Cabletron.MaxTxPower()})
	})
	s.Schedule(10*time.Microsecond, func() {
		if !m.Busy(1) {
			t.Error("b should sense busy during frame")
		}
		if m.Busy(2) {
			t.Error("far node should not sense busy")
		}
		if m.Busy(0) {
			t.Error("transmitter does not sense its own frame as busy")
		}
		if got := m.BusyUntil(1); got != end {
			t.Errorf("BusyUntil = %v, want %v", got, end)
		}
		if got := m.BusyUntil(2); got != 0 {
			t.Errorf("BusyUntil(far) = %v, want 0", got)
		}
	})
	s.Run(time.Second)
	if m.Busy(1) {
		t.Fatal("channel should be clear after frame end")
	}
}

func TestNeighborsAndDistance(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 240, Y: 0}, {X: 600, Y: 0}}
	for i, p := range pts {
		m.Attach(&stubNode{id: i, pos: p})
	}
	got := m.Neighbors(0, 250)
	want := []int{1, 2}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
	if d := m.Distance(0, 2); d != 240 {
		t.Fatalf("Distance = %v, want 240", d)
	}
	if n := len(m.NodeIDs()); n != 4 {
		t.Fatalf("NodeIDs len = %d, want 4", n)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate id")
		}
	}()
	s := sim.New(1)
	m := newTestMedium(s)
	m.Attach(&stubNode{id: 7})
	m.Attach(&stubNode{id: 7})
}

// TestAttachNegativeIDPanics: node ids index the medium's id table, so a
// negative one is refused at Attach, by name.
func TestAttachNegativeIDPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "phy: negative node id -3" {
			t.Fatalf("panic = %v, want phy: negative node id -3", r)
		}
	}()
	newTestMedium(sim.New(1)).Attach(&stubNode{id: -3})
}

// TestSparseIDs attaches ids out of order and with gaps: every id-taking
// method finds its node through the id table, a gap is an unknown node, and
// Neighbors lists ids in attach order.
func TestSparseIDs(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	nodes := []*stubNode{{id: 9, pos: geom.Point{X: 100}}, {id: 100}, {id: 2, pos: geom.Point{X: 200}}}
	for _, n := range nodes {
		m.Attach(n)
	}
	if got := m.Neighbors(100, 250); len(got) != 2 || got[0] != 9 || got[1] != 2 {
		t.Fatalf("Neighbors(100) = %v, want [9 2]", got)
	}
	if d := m.Distance(100, 2); d != 200 {
		t.Fatalf("Distance(100, 2) = %v, want 200", d)
	}
	m.Transmit(&Frame{Src: 100, Dst: Broadcast, Bytes: 100, Power: radio.Cabletron.MaxTxPower()})
	if !m.Busy(9) || m.BusyUntil(2) == 0 || m.Busy(100) {
		t.Fatal("the sparse ids' carrier sense does not see node 100's frame")
	}
	s.Run(time.Second)
	if len(nodes[0].endedOK) != 1 || len(nodes[2].endedOK) != 1 || len(nodes[1].ended) != 0 {
		t.Fatal("node 100's frame did not reach exactly nodes 9 and 2")
	}
	defer func() {
		if r := recover(); r != "phy: unknown node 3" {
			t.Fatalf("panic = %v, want phy: unknown node 3", r)
		}
	}()
	m.Busy(3)
}

func TestFrameCounter(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	m.Attach(&stubNode{id: 0})
	for i := 0; i < 3; i++ {
		m.Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 10, Power: 2})
	}
	if m.Frames() != 3 {
		t.Fatalf("Frames = %d, want 3", m.Frames())
	}
}

// TestAttachDuringTransmission is the index-invalidated-mid-frame seam:
// a transmission is on the air (so the spatial grid is built and the frame
// registered in the carrier-sense overlay), then a new node attaches in
// range. The attach drops the index; the next query must rebuild it WITH
// the in-flight transmission re-registered. The late node never receives
// the frame it missed the start of, but it senses the channel busy until
// that frame's end, and the very next frame reaches it normally.
func TestAttachDuringTransmission(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(a)
	m.Attach(b)

	pw := radio.Cabletron.MaxTxPower()
	c := &stubNode{id: 2, pos: geom.Point{X: 50, Y: 50}}
	var end sim.Time
	s.Schedule(0, func() {
		// Transmit builds the grid and registers the frame in the overlay.
		end = m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 1000, Power: pw})
	})
	s.Schedule(50*time.Microsecond, func() {
		m.Attach(c) // invalidates the index mid-frame
		if len(c.began) != 0 {
			t.Error("late node must not receive the in-flight frame")
		}
		// Busy forces the lazy rebuild; the in-flight transmission must
		// survive into the new overlay or carrier sense goes blind.
		if !m.Busy(2) {
			t.Error("late in-range node should sense the in-flight frame")
		}
		if got := m.BusyUntil(2); got != end {
			t.Errorf("BusyUntil(late) = %v, want %v", got, end)
		}
	})
	s.Run(time.Second)
	if len(c.began) != 0 || len(c.ended) != 0 {
		t.Fatalf("late node saw the in-flight frame: began=%d ended=%d", len(c.began), len(c.ended))
	}

	// The next frame, sent after the rebuild, reaches the late node.
	m.Transmit(&Frame{Src: 0, Dst: 2, Bytes: 100, Power: pw})
	s.Run(2 * time.Second)
	if len(c.began) != 1 || len(c.ended) != 1 || !c.endedOK[0] {
		t.Fatalf("late node missed the post-attach frame: began=%d ended=%d ok=%v",
			len(c.began), len(c.ended), c.endedOK)
	}
}

// TestRangeMemoMatchesLaw holds the medium's range memo to the law it
// stands in for: 10,000 powers — at or below the card's base power, the
// maximum, three link powers, +Inf, NaN and fresh random ones — first in
// the orders that break a careless two-entry memo (A B A B; A A B C A; the
// three link powers in rotation), then at random, and the radius is
// Float64bits-equal to a RangeAt call every time.
func TestRangeMemoMatchesLaw(t *testing.T) {
	card := radio.Cabletron
	m := newTestMedium(sim.New(1))
	rng := rand.New(rand.NewPCG(22, 0))
	a, b, c := card.TxPower(40), card.TxPower(120), card.TxPower(200)
	top := card.MaxTxPower()
	pool := []float64{0, math.Copysign(0, -1), card.Base / 2, card.Base, top, a, b, c, math.Inf(1), math.NaN()}
	powers := []float64{a, b, a, b, a, a, b, c, a, top, top, a, top, math.NaN(), math.NaN(), top, math.Inf(1), top}
	for i := 0; i < 30; i++ {
		powers = append(powers, pool[5+i%3])
	}
	for len(powers) < 10_000 {
		p := pool[rng.IntN(len(pool))]
		if rng.IntN(4) == 0 {
			p = card.TxPower(rng.Float64() * 1.2 * card.Range)
		}
		powers = append(powers, p)
	}
	for i, p := range powers {
		if got, want := m.rangeAt(p), card.RangeAt(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("power %d (%v): memo says %v, the law %v", i, p, got, want)
		}
	}
}
