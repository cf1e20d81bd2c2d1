package routing

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/phy"
	"eend/internal/power"
	"eend/internal/radio"
	"eend/internal/sim"
)

// dsdvModel is the routing table DSDV had before it became a slice: a map of
// rows, the update rules written against it, the advertisement collected by
// sorting the keys. The differential test below holds the slice to it.
type dsdvModel struct {
	id    int
	table map[int]*dsdvEntry
}

func (m *dsdvModel) handleUpdate(from int, entries []advEntry) (changed bool) {
	for _, adv := range entries {
		if adv.dst == m.id {
			continue
		}
		cand := adv.metric + 1
		if math.IsInf(adv.metric, 1) {
			cand = math.Inf(1)
		}
		cur, ok := m.table[adv.dst]
		switch {
		case !ok:
			m.table[adv.dst] = &dsdvEntry{next: from, metric: cand, seq: adv.seq}
			changed = true
		case adv.seq > cur.seq:
			if cur.next != from && math.IsInf(cand, 1) {
				continue
			}
			if cur.metric != cand || cur.next != from {
				changed = true
			}
			cur.next, cur.metric, cur.seq = from, cand, adv.seq
		case adv.seq == cur.seq && cand < cur.metric:
			cur.next, cur.metric = from, cand
			changed = true
		}
	}
	return changed
}

func (m *dsdvModel) neighborLost(n int) (changed bool) {
	for dst, e := range m.table {
		if dst != m.id && e.next == n && !math.IsInf(e.metric, 1) {
			e.metric = math.Inf(1)
			e.seq++
			changed = true
		}
	}
	return changed
}

func (m *dsdvModel) advertisement() []advEntry {
	dsts := make([]int, 0, len(m.table))
	for dst := range m.table {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	entries := make([]advEntry, 0, len(dsts))
	for _, dst := range dsts {
		e := m.table[dst]
		entries = append(entries, advEntry{dst: dst, metric: e.metric, seq: e.seq})
	}
	return entries
}

// updateSink is the protocol on the listening node: it keeps a copy of the
// last route update it heard (the update itself is the sender's to reuse).
type updateSink struct{ last []advEntry }

func (u *updateSink) Start()                      {}
func (u *updateSink) Send(int, int, any, float64) {}
func (u *updateSink) Stats() Stats                { return Stats{} }
func (u *updateSink) HandlePacket(_ int, pkt *mac.Packet) {
	if up, ok := pkt.Payload.(*dsdvUpdate); ok {
		u.last = slices.Clone(up.entries)
	}
}

// TestDSDVTableMatchesMapModel drives random route updates and neighbour
// losses into node 3's table and into the map model: after every step the
// two must hold the same rows and have made the same trigger decision, and
// the advertisement node 3 puts on the air — heard by node 900 next to it —
// must list the model's rows in ascending destination order. Ids are sparse
// on purpose: hearing about node 900 grows the table to 901 rows of which a
// dozen are present, and only those are advertised.
func TestDSDVTableMatchesMapModel(t *testing.T) {
	const self, listener = 3, 900
	s := sim.New(1)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := mac.NewCoordinator(s)
	sink := &updateSink{}
	var d *DSDV
	run := NewRunState(listener + 1)
	for _, n := range []struct {
		id    int
		x     float64
		proto func(*Env) Protocol
	}{
		{self, 0, func(e *Env) Protocol { d = NewDSDV(e, false); return d }},
		{listener, 100, func(*Env) Protocol { return sink }},
	} {
		var proto Protocol
		m := mac.New(s, med, coord, n.id, geom.Point{X: n.x}, mac.Config{Card: radio.Cabletron},
			func(from int, pkt *mac.Packet) { proto.HandlePacket(from, pkt) })
		proto = n.proto(&Env{ID: n.id, Sim: s, MAC: m, PM: &power.AlwaysActive{Node: m}, Bandwidth: phy.DefaultBandwidth, Run: run})
	}
	coord.Start()
	// The self route Start installs, without Start's periodic dump, whose
	// random phase would put unscripted advertisements on the air.
	*d.row(self) = dsdvEntry{present: true, next: self}
	d.rows++
	model := &dsdvModel{id: self, table: map[int]*dsdvEntry{self: {next: self}}}

	rng := rand.New(rand.NewPCG(20, 7))
	dsts := []int{0, 1, 2, self, 4, 5, 6, 7, 37, listener}
	neighbours := []int{1, 2, 5, listener}
	metrics := []float64{0, 1, 2, 3, math.Inf(1)}
	check := func(step int, what string) {
		t.Helper()
		want := model.advertisement()
		got := d.Table()
		if len(got) != len(want) || d.rows != len(want) {
			t.Fatalf("step %d (%s): %d rows (count %d), model has %d", step, what, len(got), d.rows, len(want))
		}
		for i, w := range want {
			g, m := got[i], model.table[w.dst]
			if g.Dst != w.dst || g.Next != m.next || g.Seq != m.seq ||
				math.Float64bits(g.Metric) != math.Float64bits(m.metric) {
				t.Fatalf("step %d (%s): row %d = %+v, model has dst %d %+v", step, what, i, g, w.dst, *m)
			}
		}
	}
	for step := 0; step < 2000; step++ {
		var changed bool
		var what string
		if rng.IntN(10) < 7 {
			from := neighbours[rng.IntN(len(neighbours))]
			entries := make([]advEntry, 1+rng.IntN(6))
			for i := range entries {
				entries[i] = advEntry{
					dst:    dsts[rng.IntN(len(dsts))],
					metric: metrics[rng.IntN(len(metrics))],
					seq:    uint64(rng.IntN(12)),
				}
			}
			what = "update"
			changed = model.handleUpdate(from, entries)
			d.handleUpdate(from, &dsdvUpdate{entries: entries})
		} else {
			n := neighbours[rng.IntN(len(neighbours))]
			what = "neighbour lost"
			changed = model.neighborLost(n)
			d.neighborLost(n)
		}
		if triggered := d.trigArm.Cancel(); triggered != changed {
			t.Fatalf("step %d (%s): triggered update armed = %t, model changed = %t", step, what, triggered, changed)
		}
		check(step, what)
		if step%20 == 0 {
			sink.last = nil
			d.broadcastFull()
			s.Run(s.Now() + 10*time.Millisecond)
			if want := model.advertisement(); !slices.Equal(sink.last, want) {
				t.Fatalf("step %d: advertisement on the air = %v, model's = %v", step, sink.last, want)
			}
		}
	}
	if len(d.table) != listener+1 || d.rows != len(dsts) {
		t.Errorf("table has %d slots and %d rows, want %d slots (grown to the largest id heard) and %d rows",
			len(d.table), d.rows, listener+1, len(dsts))
	}
}
