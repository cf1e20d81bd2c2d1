package routing

import (
	"math"
	"slices"
	"time"

	"eend/internal/mac"
	"eend/internal/power"
	"eend/internal/sim"
)

// DSDV timing constants (ns-2 defaults the paper builds on).
const (
	dsdvPeriod     = 15 * time.Second
	dsdvTrigMinGap = 1 * time.Second
	dsdvDataTTL    = 32
)

// dsdvEntry is one routing-table row. The table is indexed by destination
// id, so a row that is not present is a destination never heard of.
type dsdvEntry struct {
	present bool
	next    int
	metric  float64 // hops (DSDV) or accumulated h cost (DSDVH)
	seq     uint64  // destination sequence number; odd marks a broken route
}

// advEntry is one advertised row in an update packet.
type advEntry struct {
	dst    int
	metric float64
	seq    uint64
}

// dsdvUpdate is a (full or triggered) route update broadcast.
type dsdvUpdate struct {
	entries []advEntry
}

func (u *dsdvUpdate) bytes() int { return updateBaseBytes + perEntryBytes*len(u.entries) }

// DSDV is the proactive distance-vector protocol; with HCost it becomes
// DSDVH, the paper's proactive joint-optimization protocol (Section 4.2):
// the metric accumulates h(u,v,r) instead of hop count and route updates are
// also triggered when a node's power-management state changes.
type DSDV struct {
	env *Env

	// HCost selects the DSDVH metric.
	hCost bool
	// PowerControl transmits data at learned minimum power.
	powerControl bool

	table       []dsdvEntry // indexed by destination id; see row
	rows        int         // present rows: the size of a full advertisement
	mySeq       uint64
	lastTrig    sim.Time
	trigArm     sim.Timer
	periodicFn  func() // pre-bound so the repeating dump never allocates
	triggeredFn func() // likewise for the triggered dump

	stats Stats
}

var _ Protocol = (*DSDV)(nil)

// NewDSDV returns plain DSDV (hop-count metric).
func NewDSDV(env *Env, powerControl bool) *DSDV {
	return newDSDV(env, false, powerControl)
}

func newDSDV(env *Env, hCost, powerControl bool) *DSDV {
	d := &DSDV{env: env, hCost: hCost, powerControl: powerControl}
	d.periodicFn = d.periodic
	d.triggeredFn = d.triggered
	return d
}

// NewDSDVH returns DSDVH, the proactive joint-optimization variant. Wire its
// PMChanged method to the power manager's notify hook so that
// power-management transitions trigger route updates (the paper: "a route
// update is ... needed when ... the power management state of a node
// changes").
func NewDSDVH(env *Env, powerControl bool) *DSDV {
	return newDSDV(env, true, powerControl)
}

// row returns the table row of dst, growing the table to reach it.
func (d *DSDV) row(dst int) *dsdvEntry {
	if dst >= len(d.table) {
		d.table = append(d.table, make([]dsdvEntry, dst+1-len(d.table))...)
	}
	return &d.table[dst]
}

// Stats implements Protocol.
func (d *DSDV) Stats() Stats { return d.stats }

// Start implements Protocol: install the self route and begin periodic
// full-table dumps at a phase chosen randomly to desynchronize nodes.
func (d *DSDV) Start() {
	*d.row(d.env.ID) = dsdvEntry{present: true, next: d.env.ID}
	d.rows++
	first := jitter(d.env.RNG(), dsdvPeriod)
	d.env.Sim.ScheduleFor(sim.LayerRouting, first, d.periodicFn)
}

func (d *DSDV) periodic() {
	d.mySeq += 2
	d.table[d.env.ID].seq = d.mySeq
	d.broadcastFull()
	d.env.Sim.ScheduleFor(sim.LayerRouting, dsdvPeriod, d.periodicFn)
}

func (d *DSDV) broadcastFull() {
	if d.rows == 0 {
		return // not started: nothing to advertise
	}
	d.stats.UpdatesSent++
	s := d.env.take(sendUpdate)
	s.upd.entries = slices.Grow(s.upd.entries, d.rows)
	for dst := range d.table { // ascending destination id
		if e := &d.table[dst]; e.present {
			s.upd.entries = append(s.upd.entries, advEntry{dst: dst, metric: e.metric, seq: e.seq})
		}
	}
	s.pkt = mac.Packet{Kind: mac.PacketControl, Bytes: s.upd.bytes(), Payload: &s.upd}
	d.env.MAC.SendBroadcast(&s.pkt, s.doneFn)
}

// trigger schedules a rate-limited triggered full update.
func (d *DSDV) trigger() {
	if d.trigArm.Pending() {
		return
	}
	now := d.env.Sim.Now()
	wait := sim.Time(0)
	if next := d.lastTrig + dsdvTrigMinGap; next > now {
		wait = next - now
	}
	d.trigArm = d.env.Sim.ScheduleFor(sim.LayerRouting, wait, d.triggeredFn)
}

func (d *DSDV) triggered() {
	d.lastTrig = d.env.Sim.Now()
	d.broadcastFull()
}

// PMChanged is DSDVH's power-management hook: a mode transition changes the
// node's h cost for its neighbors, so a triggered update advertises it.
func (d *DSDV) PMChanged(mac.PowerMode) {
	if d.hCost {
		d.trigger()
	}
}

// linkCost is the metric increment for routing through neighbor n.
func (d *DSDV) linkCost(n int) float64 {
	if !d.hCost {
		return 1
	}
	card := d.env.MAC.Card()
	c := d.env.MAC.LinkTxPower(n) + card.Recv - 2*card.Idle
	if c < 0 {
		c = 0
	}
	if d.env.MAC.PeerPowerMode(n) == mac.PSM {
		// Recruiting a power-saving relay costs its idle power (Eq. 12).
		c += card.Idle
	}
	return c
}

// HandlePacket dispatches packets handed up by the MAC.
func (d *DSDV) HandlePacket(from int, pkt *mac.Packet) {
	switch msg := pkt.Payload.(type) {
	case *dsdvUpdate:
		d.handleUpdate(from, msg)
	case *dataPacket:
		d.forward(msg)
	}
}

func (d *DSDV) handleUpdate(from int, u *dsdvUpdate) {
	changed := false
	cost := d.linkCost(from)
	for _, adv := range u.entries {
		if adv.dst == d.env.ID {
			continue
		}
		cand := adv.metric + cost
		if math.IsInf(adv.metric, 1) {
			cand = math.Inf(1)
		}
		cur := d.row(adv.dst)
		switch {
		case !cur.present:
			*cur = dsdvEntry{present: true, next: from, metric: cand, seq: adv.seq}
			d.rows++
			changed = true
		case adv.seq > cur.seq:
			if cur.next != from && math.IsInf(cand, 1) {
				// Newer broken advertisement for a route we don't use.
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
	if changed {
		d.trigger()
	}
}

// Send implements Protocol.
func (d *DSDV) Send(dst int, bytes int, payload any, rate float64) {
	d.stats.DataSent++
	d.env.PM.OnActivity(power.ActivityData)
	pkt := &dataPacket{
		Src: d.env.ID, Dst: dst, AppBytes: bytes, Payload: payload,
		Rate: rate, TTL: dsdvDataTTL,
	}
	if dst == d.env.ID {
		d.deliver(pkt)
		return
	}
	d.forward(pkt)
}

// forward moves a data packet one hop towards its destination, or delivers
// it. pkt is only read: received, it is the previous hop's send state.
func (d *DSDV) forward(pkt *dataPacket) {
	if pkt.Dst == d.env.ID {
		d.deliver(pkt)
		return
	}
	ttl := pkt.TTL - 1
	if ttl <= 0 {
		d.stats.DataDropped++
		return
	}
	e := d.row(pkt.Dst)
	if !e.present || math.IsInf(e.metric, 1) {
		d.stats.DataDropped++
		return
	}
	if pkt.Src != d.env.ID {
		d.stats.DataForwarded++
		d.env.PM.OnActivity(power.ActivityData)
	}
	d.env.sendHop(d, e.next, pkt, pkt.Hop, ttl, d.powerControl)
}

// hopFailed implements hopOwner.
func (d *DSDV) hopFailed(next int, _ *dataPacket) { d.neighborLost(next) }

func (d *DSDV) deliver(pkt *dataPacket) {
	d.stats.DataDelivered++
	d.env.PM.OnActivity(power.ActivityData)
	if d.env.Deliver != nil {
		d.env.Deliver(pkt.Src, pkt.Payload, pkt.AppBytes)
	}
}

// neighborLost invalidates all routes through a next hop that failed at the
// MAC layer and advertises the breakage (odd sequence numbers).
func (d *DSDV) neighborLost(n int) {
	d.stats.DataDropped++
	changed := false
	for dst := range d.table {
		e := &d.table[dst]
		if e.present && dst != d.env.ID && e.next == n && !math.IsInf(e.metric, 1) {
			e.metric = math.Inf(1)
			e.seq++ // odd: broken
			changed = true
		}
	}
	if changed {
		d.trigger()
	}
}

// Table returns a copy of the routing table's rows in ascending destination
// order (for tests).
func (d *DSDV) Table() []struct {
	Dst, Next int
	Metric    float64
	Seq       uint64
} {
	type route = struct {
		Dst, Next int
		Metric    float64
		Seq       uint64
	}
	out := make([]route, 0, d.rows)
	for dst, e := range d.table {
		if e.present {
			out = append(out, route{dst, e.next, e.metric, e.seq})
		}
	}
	return out
}
