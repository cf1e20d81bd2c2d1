package phy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
	"eend/internal/sim"
)

// logNode records every medium callback into a shared per-medium log, with
// a deterministic pseudo-random CanReceive: the answer depends only on the
// node id and how many times it has been asked, so two media that pose the
// same questions in the same order see identical radios — and a medium
// that posed different questions would diverge visibly.
type logNode struct {
	id   int
	pos  geom.Point
	log  *[]string
	s    *sim.Simulator
	asks int
	deaf int // every deaf-th CanReceive answers false (0: always true)
}

func (n *logNode) NodeID() int     { return n.id }
func (n *logNode) Pos() geom.Point { return n.pos }

func (n *logNode) CanReceive() bool {
	n.asks++
	ok := n.deaf == 0 || n.asks%n.deaf != 0
	*n.log = append(*n.log, fmt.Sprintf("t=%d canrecv node=%d ask=%d ok=%v", n.s.Now(), n.id, n.asks, ok))
	return ok
}

func (n *logNode) RxBegin(f *Frame) {
	*n.log = append(*n.log, fmt.Sprintf("t=%d rxbegin node=%d src=%d seq=%v", n.s.Now(), n.id, f.Src, f.Payload))
}

func (n *logNode) RxEnd(f *Frame, ok bool) {
	*n.log = append(*n.log, fmt.Sprintf("t=%d rxend node=%d src=%d seq=%v ok=%v", n.s.Now(), n.id, f.Src, f.Payload, ok))
}

// scriptRangeAt is the script's power-to-radius law: the card's, except
// that a negative "power" -r asks for the radius r exactly, so a frame's
// disk can end on a neighbour's distance to the last bit (the <= boundary
// TPC's TxPower(d*1.05) sits next to). Unclamped, it has no maximum range:
// RangeAt(+Inf) is +Inf and the medium has no reach table to build.
func scriptRangeAt(card radio.Card, unclamped bool) func(float64) float64 {
	return func(p float64) float64 {
		switch {
		case p < 0:
			p = -p
		case p <= card.Base:
			return 0
		default:
			p = math.Pow((p-card.Base)/card.Alpha, 1/card.PathLossExp)
		}
		if unclamped {
			return p
		}
		return math.Min(p, card.Range)
	}
}

// runMediumScript drives one medium (indexed or linear reference) through a
// deterministic random storm of transmissions and carrier-sense/neighbor
// probes, returning the complete observable event log. A few talkers send
// again and again at mixed powers — maximum, random, at or below the card's
// base power (radius 0), and a radius equal to a neighbour's exact distance
// — one of them also at three powers in rotation, and one node attaches
// mid-script, in range of a talker that has already transmitted.
func runMediumScript(seed uint64, linear, unclamped bool) []string {
	rng := rand.New(rand.NewPCG(seed, 0xd1f))
	s := sim.New(seed)
	card := radio.Cabletron
	m := NewMedium(s, Config{RangeAt: scriptRangeAt(card, unclamped), Linear: linear})

	var log []string
	n := 5 + rng.IntN(40)
	side := 100 + rng.Float64()*900
	nodes := make([]*logNode, n)
	for i := range nodes {
		p := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		switch {
		case i > 0 && rng.IntN(10) == 0:
			p = nodes[i-1].pos // coincident pair
		case i > 0 && rng.IntN(10) == 0:
			p = geom.Point{X: nodes[i-1].pos.X + card.Range, Y: nodes[i-1].pos.Y} // exactly at max range
		}
		nodes[i] = &logNode{id: i, pos: p, log: &log, s: s, deaf: rng.IntN(5)}
		m.Attach(nodes[i])
	}

	transmit := func(i, src int, at time.Duration) {
		power := card.MaxTxPower()
		switch rng.IntN(8) {
		case 0, 1, 2:
			power = card.TxPower(rng.Float64() * card.Range)
		case 3:
			power = card.Base * rng.Float64() // radius 0: co-located listeners only
		case 4:
			power = -nodes[src].pos.Dist(nodes[rng.IntN(n)].pos) // ends exactly on a node
		}
		f := &Frame{Src: src, Dst: Broadcast, Bytes: 20 + rng.IntN(500), Power: power, Payload: i}
		if rng.IntN(4) == 0 {
			f.Dst = rng.IntN(n)
		}
		s.Schedule(at, func() { m.Transmit(f) })
	}
	talkers := 1 + rng.IntN(3)
	frames := 30 + rng.IntN(120)
	transmit(0, 0, 0) // talker 0 is on the air before the late node exists
	for i := 1; i < frames; i++ {
		src := rng.IntN(n)
		if rng.IntN(2) == 0 {
			src = rng.IntN(talkers)
		}
		transmit(i, src, time.Duration(rng.IntN(40_000))*time.Microsecond)
	}

	// The last talker also cycles through three powers, frame after frame:
	// on the indexed medium's two-entry range memo every one is a miss that
	// evicts the power due next but one, between the hits the repeated
	// maximum above gives. The linear reference has no memo.
	cycle := [3]float64{card.MaxTxPower(), card.TxPower(rng.Float64() * card.Range), card.TxPower(rng.Float64() * card.Range)}
	for i := 0; i < 15; i++ {
		f := &Frame{Src: talkers - 1, Dst: Broadcast, Bytes: 20, Power: cycle[i%3], Payload: frames + i}
		s.Schedule(time.Duration(i)*2500*time.Microsecond, func() { m.Transmit(f) })
	}

	late := &logNode{id: n, pos: geom.Point{X: nodes[0].pos.X + 10, Y: nodes[0].pos.Y}, log: &log, s: s}
	s.Schedule(20*time.Millisecond, func() { m.Attach(late) })

	for i := 0; i < 60; i++ {
		id := rng.IntN(n)
		radius := rng.Float64() * 2 * card.Range
		if rng.IntN(4) == 0 {
			radius = card.Range // the reach table's own row
		}
		at := time.Duration(rng.IntN(40_000)) * time.Microsecond
		s.Schedule(at, func() {
			log = append(log, fmt.Sprintf("t=%d busy node=%d %v until=%d", s.Now(), id, m.Busy(id), m.BusyUntil(id)))
			log = append(log, fmt.Sprintf("t=%d neighbors node=%d r=%g %v", s.Now(), id, radius, m.Neighbors(id, radius)))
		})
	}

	s.Run(time.Second)
	return log
}

// TestMediumDifferentialGridVsLinear proves the spatial index and the reach
// tables are invisible: randomized fields (node counts, positions incl.
// coincident and exactly-at-range pairs, powers, frame mixes, flaky radios,
// a mid-run attach) produce the identical callback and probe sequence under
// the indexed medium and the O(n) linear-scan reference — with the card's
// clamped range law (tables in use) and with an unclamped one (no finite
// maximum range, so the indexed medium must stay on the scan path).
func TestMediumDifferentialGridVsLinear(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, unclamped := range []bool{false, true} {
			indexed := runMediumScript(seed, false, unclamped)
			linear := runMediumScript(seed, true, unclamped)
			if len(indexed) != len(linear) {
				t.Fatalf("seed %d unclamped=%v: %d events indexed vs %d linear", seed, unclamped, len(indexed), len(linear))
			}
			for i := range indexed {
				if indexed[i] != linear[i] {
					t.Fatalf("seed %d unclamped=%v: event %d diverges:\n  indexed: %s\n  linear:  %s",
						seed, unclamped, i, indexed[i], linear[i])
				}
			}
		}
	}
}

// TestBusyUntilUnknownNodePanics pins the clear panic (BusyUntil used to
// nil-deref on an unregistered id; now it reports the node like Busy does).
func TestBusyUntilUnknownNodePanics(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	m.Attach(&stubNode{id: 0})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unknown node")
		}
		if msg, ok := r.(string); !ok || msg != "phy: unknown node 42" {
			t.Fatalf("panic = %v, want phy: unknown node 42", r)
		}
	}()
	m.BusyUntil(42)
}

// TestNeighborsIntoReusesBuffer pins the zero-alloc steady state of the
// buffer variant: the same backing array serves repeated queries.
func TestNeighborsIntoReusesBuffer(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	for i := 0; i < 10; i++ {
		m.Attach(&stubNode{id: i, pos: geom.Point{X: float64(i) * 50}})
	}
	buf := make([]int, 0, 16)
	first := m.NeighborsInto(3, 120, buf)
	if want := []int{1, 2, 4, 5}; len(first) != len(want) {
		t.Fatalf("NeighborsInto = %v, want %v", first, want)
	}
	second := m.NeighborsInto(0, 120, first)
	if len(second) != 2 || second[0] != 1 || second[1] != 2 {
		t.Fatalf("reused query = %v, want [1 2]", second)
	}
	if &first[0] != &second[0] {
		t.Fatal("NeighborsInto reallocated a buffer with spare capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		second = m.NeighborsInto(5, 120, second)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NeighborsInto allocates %v per query", allocs)
	}
}

// TestAttachAfterTransmitRebuildsIndex pins that attaching mid-run (while
// a frame is on the air) re-registers ongoing transmissions in the rebuilt
// overlay: the late node still senses the channel busy.
func TestAttachAfterTransmitRebuildsIndex(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	m.Attach(a)
	m.Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 1000, Power: radio.Cabletron.MaxTxPower()})
	late := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(late)
	if !m.Busy(1) {
		t.Fatal("late-attached node must sense the ongoing transmission")
	}
	if got := m.Neighbors(1, 250); len(got) != 1 || got[0] != 0 {
		t.Fatalf("late-attached Neighbors = %v, want [0]", got)
	}
}

// TestAttachMidFrameWithoutQuery pins the other half of the seam above: the
// attach drops the carrier-sense overlay, and the frame on the air ends
// before anything queries the medium again. Its completion must not look
// for the cells of an overlay that no longer exists (it used to index the
// dropped overlay and panic).
func TestAttachMidFrameWithoutQuery(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 1000, Power: radio.Cabletron.MaxTxPower()})
	s.Schedule(50*time.Microsecond, func() { m.Attach(&stubNode{id: 2, pos: geom.Point{X: 50, Y: 50}}) })
	s.Run(time.Second)
	if len(b.ended) != 1 || !b.endedOK[0] {
		t.Fatalf("in-flight frame did not complete at its recipient: ended=%d ok=%v", len(b.ended), b.endedOK)
	}
	if m.Busy(2) {
		t.Fatal("channel should be clear after the frame ended")
	}
}

// TestAttachAfterTransmitExtendsReach pins the reach tables' invalidation: a
// source has transmitted (so its row exists), then a node attaches inside
// its range. The source's next frame must reach the late node, and the
// source's max-range neighbor row must list it; a row handed out before the
// attach is left as it was.
func TestAttachAfterTransmitExtendsReach(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	pw := radio.Cabletron.MaxTxPower()
	a := &stubNode{id: 0, pos: geom.Point{X: 0, Y: 0}}
	b := &stubNode{id: 1, pos: geom.Point{X: 100, Y: 0}}
	m.Attach(a)
	m.Attach(b)
	m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 100, Power: pw})
	s.Run(time.Second)
	before := m.Neighbors(0, radio.Cabletron.Range)

	late := &stubNode{id: 2, pos: geom.Point{X: 50, Y: 50}}
	m.Attach(late)
	f := &Frame{Src: 0, Dst: Broadcast, Bytes: 100, Power: pw}
	m.Transmit(f)
	s.Run(2 * time.Second)
	if len(late.began) != 1 || late.began[0] != f || len(late.ended) != 1 || !late.endedOK[0] {
		t.Fatalf("late node missed the post-attach frame: began=%d ended=%d ok=%v",
			len(late.began), len(late.ended), late.endedOK)
	}
	if len(b.ended) != 2 {
		t.Fatalf("early node saw %d frames, want 2", len(b.ended))
	}
	if got := m.Neighbors(0, radio.Cabletron.Range); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors after attach = %v, want [1 2]", got)
	}
	if len(before) != 1 || before[0] != 1 {
		t.Fatalf("row handed out before the attach changed: %v", before)
	}
}

// TestReachTableMatchesBruteForce checks the table against its definition:
// row src lists exactly {j != src : Dist(src, j) <= maxRange} in ascending
// attach order, with node ids and bit-identical distances, over placements
// that stress the grid differently (uniform; clusters tighter than a cell;
// a corridor one cell high; everything on one spot).
func TestReachTableMatchesBruteForce(t *testing.T) {
	maxRange := radio.Cabletron.Range
	placements := map[string]func(rng *rand.Rand, i int) geom.Point{
		"uniform": func(rng *rand.Rand, _ int) geom.Point {
			return geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
		},
		"clustered": func(rng *rand.Rand, i int) geom.Point {
			c := geom.Point{X: float64(i%4) * 400, Y: float64(i%3) * 400}
			return geom.Point{X: c.X + rng.Float64()*60, Y: c.Y + rng.Float64()*60}
		},
		"corridor": func(rng *rand.Rand, _ int) geom.Point {
			return geom.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 20}
		},
		"co-located": func(*rand.Rand, int) geom.Point { return geom.Point{X: 7, Y: 7} },
	}
	for name, place := range placements {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x4ea))
			m := newTestMedium(sim.New(seed))
			n := 2 + rng.IntN(120)
			for i := 0; i < n; i++ {
				m.Attach(&stubNode{id: 1000 + i, pos: place(rng, i)})
			}
			m.ensureIndex()
			if got := len(m.reachStart); got != n+1 {
				t.Fatalf("%s seed %d: %d row offsets for %d nodes", name, seed, got, n)
			}
			for src := 0; src < n; src++ {
				k := m.reachStart[src]
				for j := 0; j < n; j++ {
					d := m.pos[src].Dist(m.pos[j])
					if j == src || !(d <= maxRange) {
						continue
					}
					if k >= m.reachStart[src+1] {
						t.Fatalf("%s seed %d: row %d is missing node %d", name, seed, src, j)
					}
					if m.reachIdx[k] != int32(j) || m.reachID[k] != 1000+j ||
						math.Float64bits(m.reachDist[k]) != math.Float64bits(d) {
						t.Fatalf("%s seed %d: row %d entry %d = (%d, %d, %v), want (%d, %d, %v)", name, seed,
							src, k, m.reachIdx[k], m.reachID[k], m.reachDist[k], j, 1000+j, d)
					}
					k++
				}
				if k != m.reachStart[src+1] {
					t.Fatalf("%s seed %d: row %d has %d extra entries", name, seed, src, m.reachStart[src+1]-k)
				}
			}
		}
	}
}

// quietNode is a listener that allocates nothing in its callbacks.
type quietNode struct {
	id  int
	pos geom.Point
	rx  int
}

func (n *quietNode) NodeID() int        { return n.id }
func (n *quietNode) Pos() geom.Point    { return n.pos }
func (n *quietNode) CanReceive() bool   { return true }
func (n *quietNode) RxBegin(*Frame)     {}
func (n *quietNode) RxEnd(*Frame, bool) { n.rx++ }

// TestTransmitSteadyStateZeroAllocs pins the per-frame cost the reach
// tables and the pooled bookkeeping buy: once the tables are built and the
// pools warm, a reused Frame goes through Transmit, fan-out and completion
// without a single allocation, at full and at reduced power.
func TestTransmitSteadyStateZeroAllocs(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	rng := rand.New(rand.NewPCG(1, 0xa110c))
	nodes := make([]*quietNode, 200)
	for i := range nodes {
		nodes[i] = &quietNode{id: i, pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
		m.Attach(nodes[i])
	}
	f := &Frame{Dst: Broadcast, Bytes: 128, Power: radio.Cabletron.MaxTxPower()}
	for i := range nodes { // every listener's inbox gets its first slot
		f.Src = i
		s.Run(m.Transmit(f))
	}
	src := 0
	allocs := testing.AllocsPerRun(200, func() {
		f.Src = src % len(nodes)
		f.Power = radio.Cabletron.TxPower(float64(50 + src%5*50))
		src++
		s.Run(m.Transmit(f))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Transmit -> finish allocates %v per frame", allocs)
	}
	received := 0
	for _, n := range nodes {
		received += n.rx
	}
	if received == 0 {
		t.Fatal("no frame was received")
	}
}
