// Package phy models the shared wireless medium: deterministic disk
// propagation derived from transmit power, frame airtime from channel
// bandwidth, carrier sense, half-duplex constraints, and collisions
// (any overlap of two in-range transmissions corrupts both receptions,
// with no capture effect).
//
// Every awake, in-range listener overhears every frame and is charged
// receive energy for its airtime by the MAC layer via the RxBegin/RxEnd
// callbacks, matching the paper's energy model in which Prx is paid for all
// receptions.
//
// The medium is spatially indexed: attached positions are bucketed into a
// geom.Grid whose cell side is the maximum radio range, so carrier sense
// reads one cell's list of ongoing transmissions. Positions are captured at
// Attach and never move, so who can hear whom is static: the grid is
// queried once per node to build a reach table — for every source, the
// attach indices within maximum range, ascending, with the distance to
// each — and transmission fan-out and neighbor queries walk that table,
// comparing the stored distance with the frame's radius. A frame costs
// O(neighbors) comparisons and no sort, no hypot and no allocation. The
// tables are an optimization only: they hold the distances the
// Config.Linear reference scan computes, in the order it visits them, so
// results are bit-identical (the differential tests pin this).
package phy

import (
	"fmt"
	"math"
	"slices"
	"time"

	"eend/internal/geom"
	"eend/internal/sim"
)

// Frame is one transmission on the medium. Dst is a MAC address (NodeID) or
// Broadcast; filtering happens at the MAC, the medium delivers to every
// in-range listener (overhearing).
type Frame struct {
	Src     int
	Dst     int // Broadcast or a node id
	Bytes   int // on-air size including MAC framing
	Power   float64
	Payload any

	Start, End sim.Time // filled by the medium
}

// Broadcast is the destination id for broadcast frames.
const Broadcast = -1

// Listener is a node attached to the medium (implemented by the MAC).
type Listener interface {
	// NodeID returns the node's unique id.
	NodeID() int
	// Pos returns the node's position. The medium captures it at Attach
	// time (topologies are static in this simulator).
	Pos() geom.Point
	// CanReceive reports whether the radio can lock onto a new frame now
	// (awake and not transmitting).
	CanReceive() bool
	// RxBegin is called when a frame starts arriving.
	RxBegin(f *Frame)
	// RxEnd is called when the frame finishes; ok is false if it collided.
	RxEnd(f *Frame, ok bool)
}

// Config holds channel parameters.
type Config struct {
	Bandwidth float64 // bit/s
	// RangeAt maps transmit power (W) to communication radius (m); usually
	// Card.RangeAt. Carrier-sense radius is assumed equal (documented
	// simplification). The spatial index sizes its cells to the maximum
	// radius, RangeAt(+Inf).
	RangeAt func(power float64) float64
	// Linear disables the spatial index, the reach tables and the range memo:
	// every query falls back to the original O(n) scan, every frame to RangeAt.
	// Results are bit-identical either way — the index only prunes
	// candidates and the visit order is attach order in both modes — which
	// is exactly what the differential tests assert by running both media
	// on one scenario.
	Linear bool
}

// DefaultBandwidth is the 2 Mbit/s DSSS rate of the 802.11 cards the paper
// models.
const DefaultBandwidth = 2e6

// Preamble is the 802.11 long preamble + PLCP header duration of every frame.
const Preamble = 192 * time.Microsecond

// rxEntry is one ongoing reception in a listener's inbox. Inboxes are tiny
// (a handful of overlapping frames at worst), so a value slice beats the
// map[*Frame]*reception the medium used to churn per frame.
type rxEntry struct {
	frame     *Frame
	corrupted bool
}

// transmission is the medium's bookkeeping for one frame on the air: its
// reach, the overlay cells it is registered in for carrier sense, and the
// attach indices it was delivered to (ascending), so completion visits
// exactly the recipients instead of scanning every listener.
type transmission struct {
	frame  *Frame
	radius float64
	pos    geom.Point
	cells  []int32 // spatial-overlay cell indices (empty in linear mode)
	recips []int32 // attach indices RxBegin was delivered to, ascending
}

// finisher is a pooled end-of-frame callback: fn is bound to run exactly
// once when the finisher is created, so scheduling a frame's completion
// costs no closure allocation after the pool warms up.
type finisher struct {
	m  *Medium
	tx *transmission
	fn func()
}

func (fin *finisher) run() {
	tx := fin.tx
	fin.tx = nil
	fin.m.freeFin = append(fin.m.freeFin, fin)
	fin.m.finish(tx)
}

// Medium is the shared channel. It is driven entirely by the simulation
// kernel and is not safe for concurrent use.
type Medium struct {
	sim       *sim.Simulator
	cfg       Config
	listeners []Listener
	pos       []geom.Point // attach index -> position, captured at Attach
	attachOf  []int32      // node id -> attach index + 1; 0: no such node

	maxRange float64 // index cell side: cfg.RangeAt(+Inf)
	// rangeMemo holds the two powers last transmitted at with their radii,
	// latest first (rangeAt); NaN, which equals no power, while unused.
	rangeMemo [2]struct{ power, radius float64 }

	// Spatial index, rebuilt lazily after an Attach invalidates it. The
	// activeCells overlay registers each ongoing transmission in every
	// cell its disk can intersect, so carrier sense scans one cell's list
	// instead of all active transmissions.
	grid        *geom.Grid
	activeCells [][]*transmission
	scratch     []int32 // reusable candidate buffer (see takeScratch)

	// Reach tables in CSR layout, built and dropped with the grid: row i,
	// [reachStart[i], reachStart[i+1]), lists the nodes within maxRange of
	// attach index i (i itself excluded) in ascending attach order — their
	// attach indices, node ids and distances from i. Nil when maxRange is
	// not a positive finite number, where a table would be the whole field.
	reachStart []int32
	reachIdx   []int32
	reachID    []int
	reachDist  []float64

	activeAll []*transmission // all ongoing transmissions, start order

	inboxes [][]rxEntry // per-attach-index ongoing receptions

	// Free lists recycling per-frame bookkeeping. A busy run transmits
	// millions of frames; without pooling these dominate the allocation
	// profile.
	freeTx  []*transmission
	freeFin []*finisher

	frames uint64
}

// NewMedium creates a medium with the given channel configuration.
func NewMedium(s *sim.Simulator, cfg Config) *Medium {
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = DefaultBandwidth
	}
	if cfg.RangeAt == nil {
		panic("phy: Config.RangeAt is required")
	}
	return &Medium{
		sim:       s,
		cfg:       cfg,
		maxRange:  cfg.RangeAt(math.Inf(1)),
		rangeMemo: [2]struct{ power, radius float64 }{{power: math.NaN()}, {power: math.NaN()}},
	}
}

// rangeAt is cfg.RangeAt behind a two-entry memo: a run transmits at a
// handful of powers (control frames at the card's maximum, data at the
// link's) and RangeAt pays a math.Pow per call. The law is a pure function
// and the key the exact power, so a hit returns the bits a call would; the
// linear reference calls every time.
func (m *Medium) rangeAt(power float64) float64 {
	if m.cfg.Linear {
		return m.cfg.RangeAt(power)
	}
	if memo := &m.rangeMemo; power != memo[0].power {
		if power != memo[1].power { // a miss replaces the older entry
			memo[1].power, memo[1].radius = power, m.cfg.RangeAt(power)
		}
		memo[0], memo[1] = memo[1], memo[0]
	}
	return m.rangeMemo[0].radius
}

// Attach registers a listener. Node ids must be unique and non-negative;
// they index a slice, so they should also be dense. Attaching invalidates
// the spatial index and the reach tables; they are rebuilt (and ongoing
// transmissions re-registered) on the next query.
func (m *Medium) Attach(l Listener) {
	id := l.NodeID()
	if id < 0 {
		panic(fmt.Sprintf("phy: negative node id %d", id))
	}
	m.attachOf = append(m.attachOf, make([]int32, max(0, id+1-len(m.attachOf)))...)
	if m.attachOf[id] != 0 {
		panic(fmt.Sprintf("phy: duplicate node id %d", id))
	}
	m.attachOf[id] = int32(len(m.listeners)) + 1
	m.listeners = append(m.listeners, l)
	m.pos = append(m.pos, l.Pos())
	m.inboxes = append(m.inboxes, nil)
	m.grid, m.activeCells = nil, nil
	m.reachStart, m.reachIdx, m.reachID, m.reachDist = nil, nil, nil, nil
	// The overlay is gone, so no frame on the air is registered in it: one
	// that ends before the next query must not look for its old cells.
	for _, tx := range m.activeAll {
		tx.cells = tx.cells[:0]
	}
}

// ensureIndex builds the spatial index and the reach tables over the
// attached positions and re-registers every ongoing transmission in the
// carrier-sense overlay.
func (m *Medium) ensureIndex() {
	if m.grid != nil {
		return
	}
	m.grid = geom.NewGrid(m.maxRange, m.pos)
	m.activeCells = make([][]*transmission, m.grid.NumCells())
	for _, tx := range m.activeAll {
		m.registerActive(tx)
	}
	if m.maxRange > 0 && !math.IsInf(m.maxRange, 1) {
		m.buildReach()
	}
}

// buildReach fills the reach tables from the grid: one pass over the
// sources counts their in-range candidates, the arrays are allocated at
// their exact size, and a second pass stores each source's candidates —
// sorted into attach order — with the distances the scan path would compute.
func (m *Medium) buildReach() {
	n := len(m.pos)
	cand := m.takeScratch()
	start := make([]int32, n+1)
	for i, p := range m.pos {
		cand = m.grid.Query(p, m.maxRange, cand[:0])
		k := start[i]
		for _, c := range cand {
			if int(c) != i && p.Dist(m.pos[c]) <= m.maxRange {
				k++
			}
		}
		start[i+1] = k
	}
	idx := make([]int32, start[n])
	ids := make([]int, start[n])
	dist := make([]float64, start[n])
	for i, p := range m.pos {
		cand = m.appendCandidates(p, m.maxRange, cand[:0])
		k := start[i]
		for _, c := range cand {
			if d := p.Dist(m.pos[c]); int(c) != i && d <= m.maxRange {
				idx[k], ids[k], dist[k] = c, m.listeners[c].NodeID(), d
				k++
			}
		}
	}
	m.releaseScratch(cand)
	m.reachStart, m.reachIdx, m.reachID, m.reachDist = start, idx, ids, dist
}

// reach returns the bounds of attach index src's row in the reach tables
// when the row covers a disk of the given radius. ok is false in linear
// mode, without a finite maximum range, or for a radius beyond it; callers
// then scan candidates instead.
func (m *Medium) reach(src int32, radius float64) (lo, hi int32, ok bool) {
	if m.cfg.Linear || !(radius <= m.maxRange) {
		return 0, 0, false
	}
	m.ensureIndex()
	if m.reachStart == nil {
		return 0, 0, false
	}
	return m.reachStart[src], m.reachStart[src+1], true
}

// registerActive adds tx to the overlay list of every cell its disk can
// intersect, recording the cells for removal at finish.
func (m *Medium) registerActive(tx *transmission) {
	x0, y0, x1, y1 := m.grid.CoverRange(tx.pos, tx.radius)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			c := m.grid.CellIndex(x, y)
			m.activeCells[c] = append(m.activeCells[c], tx)
			tx.cells = append(tx.cells, int32(c))
		}
	}
}

// unregisterActive removes tx from its overlay cells and the active list.
func (m *Medium) unregisterActive(tx *transmission) {
	for _, c := range tx.cells {
		cell := m.activeCells[c]
		for i, t := range cell {
			if t == tx {
				cell[i] = cell[len(cell)-1]
				m.activeCells[c] = cell[:len(cell)-1]
				break
			}
		}
	}
	tx.cells = tx.cells[:0]
	for i, t := range m.activeAll {
		if t == tx {
			m.activeAll[i] = m.activeAll[len(m.activeAll)-1]
			m.activeAll = m.activeAll[:len(m.activeAll)-1]
			break
		}
	}
}

// takeScratch hands out the medium's candidate buffer; releaseScratch
// returns it. The swap makes reentrant medium calls from listener
// callbacks merely allocate a fresh buffer instead of corrupting an
// in-progress iteration.
func (m *Medium) takeScratch() []int32 {
	buf := m.scratch
	m.scratch = nil
	return buf[:0]
}

func (m *Medium) releaseScratch(buf []int32) { m.scratch = buf }

// appendCandidates appends the attach indices of all listeners that may
// lie within radius of p — every listener in linear mode, the grid's
// candidate cells otherwise — sorted ascending so callers visit them in
// attach order, exactly like the reference scan. It serves the reach-table
// build and the scan path (linear mode, or a radius no table covers).
func (m *Medium) appendCandidates(p geom.Point, radius float64, buf []int32) []int32 {
	if m.cfg.Linear {
		for i := range m.listeners {
			buf = append(buf, int32(i))
		}
		return buf
	}
	m.ensureIndex()
	buf = m.grid.Query(p, radius, buf)
	slices.Sort(buf)
	return buf
}

// index returns the attach index of node id.
func (m *Medium) index(id int) int32 {
	if uint(id) >= uint(len(m.attachOf)) || m.attachOf[id] == 0 {
		panic(fmt.Sprintf("phy: unknown node %d", id))
	}
	return m.attachOf[id] - 1
}

// Airtime returns the on-air duration of a frame of the given size.
func (m *Medium) Airtime(bytes int) time.Duration {
	bits := float64(bytes * 8)
	return Preamble + time.Duration(bits/m.cfg.Bandwidth*float64(time.Second))
}

// Frames returns the number of frames transmitted so far.
func (m *Medium) Frames() uint64 { return m.frames }

// Busy reports whether node id senses the channel busy: some ongoing
// transmission (other than its own) covers its position.
func (m *Medium) Busy(id int) bool {
	idx := m.index(id)
	p := m.pos[idx]
	for _, t := range m.sensed(p) {
		if t.frame.Src == id {
			continue
		}
		if t.pos.Dist(p) <= t.radius {
			return true
		}
	}
	return false
}

// BusyUntil returns the latest end time among ongoing transmissions sensed
// by node id, or zero if the channel is clear.
func (m *Medium) BusyUntil(id int) sim.Time {
	idx := m.index(id)
	p := m.pos[idx]
	var until sim.Time
	for _, t := range m.sensed(p) {
		if t.frame.Src == id {
			continue
		}
		if t.pos.Dist(p) <= t.radius && t.frame.End > until {
			until = t.frame.End
		}
	}
	return until
}

// sensed returns the ongoing transmissions whose disks can cover p: the
// overlay list of p's cell, or every active transmission in linear mode.
// Order is arbitrary — Busy and BusyUntil are order-insensitive.
func (m *Medium) sensed(p geom.Point) []*transmission {
	if m.cfg.Linear {
		return m.activeAll
	}
	m.ensureIndex()
	return m.activeCells[m.grid.CellOf(p)]
}

// Transmit puts f on the air from its source node. The caller (MAC) is
// responsible for the transmitter's energy accounting; the medium invokes
// RxBegin/RxEnd on every in-range listener able to receive. Returns the
// frame end time.
func (m *Medium) Transmit(f *Frame) sim.Time {
	srcIdx := m.index(f.Src)
	now := m.sim.Now()
	f.Start = now
	f.End = now + m.Airtime(f.Bytes)
	m.frames++

	radius := m.rangeAt(f.Power)
	tx := m.newTransmission(f, radius, m.pos[srcIdx])
	m.activeAll = append(m.activeAll, tx)
	if !m.cfg.Linear {
		m.ensureIndex()
		m.registerActive(tx)
	}

	// The transmitter stops listening: corrupt its ongoing receptions.
	srcInbox := m.inboxes[srcIdx]
	for i := range srcInbox {
		srcInbox[i].corrupted = true
	}

	// Deliver to in-range listeners in attach order: the source's reach
	// table filtered by the stored distance, or the candidate scan.
	if lo, hi, ok := m.reach(srcIdx, radius); ok {
		idxs, dists := m.reachIdx[lo:hi], m.reachDist[lo:hi]
		for k, idx := range idxs {
			if dists[k] > radius {
				continue
			}
			m.deliver(tx, idx)
		}
	} else {
		cand := m.appendCandidates(tx.pos, radius, m.takeScratch())
		for _, idx := range cand {
			if idx == srcIdx {
				continue
			}
			if tx.pos.Dist(m.pos[idx]) > radius {
				continue
			}
			m.deliver(tx, idx)
		}
		m.releaseScratch(cand)
	}

	fin := m.newFinisher(tx)
	m.sim.ScheduleAtFor(sim.LayerPhy, f.End, fin.fn)
	return f.End
}

// deliver starts tx's reception at the in-range listener idx, if its radio
// can lock on. A listener already mid-reception suffers a collision: both
// frames corrupt.
func (m *Medium) deliver(tx *transmission, idx int32) {
	l := m.listeners[idx]
	if !l.CanReceive() {
		return
	}
	inbox := m.inboxes[idx]
	corrupted := len(inbox) > 0
	for i := range inbox {
		inbox[i].corrupted = true
	}
	m.inboxes[idx] = append(inbox, rxEntry{frame: tx.frame, corrupted: corrupted})
	tx.recips = append(tx.recips, idx)
	l.RxBegin(tx.frame)
}

// newTransmission takes a transmission from the pool.
func (m *Medium) newTransmission(f *Frame, radius float64, pos geom.Point) *transmission {
	if n := len(m.freeTx); n > 0 {
		t := m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
		t.frame, t.radius, t.pos = f, radius, pos
		return t
	}
	return &transmission{frame: f, radius: radius, pos: pos}
}

// newFinisher takes an end-of-frame callback from the pool; its bound fn
// recycles it after running.
func (m *Medium) newFinisher(tx *transmission) *finisher {
	if n := len(m.freeFin); n > 0 {
		fin := m.freeFin[n-1]
		m.freeFin = m.freeFin[:n-1]
		fin.tx = tx
		return fin
	}
	fin := &finisher{m: m, tx: tx}
	fin.fn = fin.run
	return fin
}

// finish ends tx: it leaves the carrier-sense structures, then every
// recorded recipient's reception completes, in attach order (recips is
// ascending by construction) — the same visit order as the reference
// all-listener scan, without touching uninvolved nodes.
func (m *Medium) finish(tx *transmission) {
	f := tx.frame
	m.unregisterActive(tx)
	recips := tx.recips
	for _, idx := range recips {
		inbox := m.inboxes[idx]
		for i := range inbox {
			if inbox[i].frame == f {
				corrupted := inbox[i].corrupted
				m.inboxes[idx] = append(inbox[:i], inbox[i+1:]...)
				m.listeners[idx].RxEnd(f, !corrupted)
				break
			}
		}
	}
	tx.frame = nil
	tx.recips = recips[:0]
	m.freeTx = append(m.freeTx, tx)
}

// Neighbors returns the ids of all nodes within the given radius of node id,
// in attach (= id) order. Routing layers use this as their (idealized)
// neighbor table; the paper's protocols obtain the same information from
// MAC-level beacons. The result is read-only: at the maximum range it is
// the node's row of the reach table itself, not a copy. NeighborsInto
// copies.
func (m *Medium) Neighbors(id int, radius float64) []int {
	if radius == m.maxRange {
		if lo, hi, ok := m.reach(m.index(id), radius); ok {
			return m.reachID[lo:hi:hi]
		}
	}
	return m.NeighborsInto(id, radius, nil)
}

// NeighborsInto is Neighbors appending into the caller's buffer (truncated
// first, grown as needed), so steady-state callers with a retained buffer
// pay zero allocations per query.
func (m *Medium) NeighborsInto(id int, radius float64, buf []int) []int {
	idx := m.index(id)
	buf = buf[:0]
	if lo, hi, ok := m.reach(idx, radius); ok {
		ids, dists := m.reachID[lo:hi], m.reachDist[lo:hi]
		for k, d := range dists {
			if d <= radius {
				buf = append(buf, ids[k])
			}
		}
		return buf
	}
	p := m.pos[idx]
	cand := m.appendCandidates(p, radius, m.takeScratch())
	for _, c := range cand {
		if c == idx {
			continue
		}
		if p.Dist(m.pos[c]) <= radius {
			buf = append(buf, m.listeners[c].NodeID())
		}
	}
	m.releaseScratch(cand)
	return buf
}

// Distance returns the distance between two attached nodes.
func (m *Medium) Distance(a, b int) float64 {
	return m.pos[m.index(a)].Dist(m.pos[m.index(b)])
}

// NodeIDs returns all attached node ids in attach order.
func (m *Medium) NodeIDs() []int {
	ids := make([]int, len(m.listeners))
	for i, l := range m.listeners {
		ids[i] = l.NodeID()
	}
	return ids
}
