package routing

import (
	"math"
	"time"

	"eend/internal/mac"
	"eend/internal/power"
	"eend/internal/sim"
)

// DSR discovery constants.
const (
	rreqTTL          = 16
	rreqJitterMax    = 10 * time.Millisecond
	discoveryTimeout = 500 * time.Millisecond
	discoveryRetries = 3
	sendBufferCap    = 20
	dataTTL          = 64
)

// Variant parameterizes the DSR engine into the paper's reactive protocols
// and, with Pinned, into static routing.
type Variant struct {
	// Pinned takes the control plane out (NewStatic): the route cache is
	// filled at construction and never changes. A destination missing from
	// it, or a hop that fails at the MAC, costs DataDropped++ and nothing
	// else — no send buffer, no RREQ, no purge, no RERR.
	Pinned bool

	// LinkCost returns the discovery cost of the link from->me, evaluated
	// at the receiving node (paper: "updates the cost using f(u,v)").
	// nil means hop count (plain DSR, TITAN).
	LinkCost func(d *DSR, from int, req *rreq) float64

	// CostBased protocols rebroadcast duplicate RREQs that advertise a
	// lower cost and answer them with additional RREPs (MTPR, MTPR+, DSRH).
	CostBased bool

	// Participate decides whether a non-target node joins route discovery
	// (TITAN's probabilistic backbone bias). nil means always.
	Participate func(d *DSR) bool

	// ForwardDelay adds protocol-specific RREQ forwarding delay on top of
	// the random jitter (TITAN defers power-saving nodes). nil means none.
	ForwardDelay func(d *DSR) time.Duration

	// PowerControl transmits data frames at the learned per-neighbor
	// minimum power instead of maximum power.
	PowerControl bool
}

// rreq is a route request, flooded from the origin.
type rreq struct {
	Origin, Target int
	ID             uint64
	Path           []int // nodes traversed so far, origin first
	Cost           float64
	Rate           float64
	TTL            int
}

func (r *rreq) bytes() int { return rreqBaseBytes + PerHopBytes*len(r.Path) }

// rrep carries a discovered route back to the origin along the reverse path.
type rrep struct {
	Origin, Target int
	ID             uint64
	Route          []int // full path origin..target
	Cost           float64
	Hop            int // index of the node currently holding the reply
}

func (r *rrep) bytes() int { return rrepBaseBytes + PerHopBytes*len(r.Route) }

// rerr reports a broken link back to a packet source.
type rerr struct {
	From, To int // the broken link
	Dst      int // the source being notified
	Route    []int
	Hop      int
}

type cachedRoute struct {
	path []int
	cost float64
}

type discovery struct {
	tries  int
	timer  sim.Timer
	buffer []*dataPacket
}

// floodTable is a run's duplicate state for route requests (ARCHITECTURE
// "Flood state"): per request, one cost per node id. Node i uses slot i
// only: the target's holds the best cost it answered at, any other node's
// the best it forwarded at (−Inf: declined). A node is a request's target for
// the whole flood or never, so one array carries both.
type floodTable struct {
	nodes int          // length a request's array starts at
	reqs  [][][]uint64 // [origin][id-1] (ids grow by one from 1) -> slot by node
}

// unrecorded is a signalling NaN, which no recorded cost is: a node records
// −Inf or req.Cost + linkCost, and an IEEE 754 sum that is a NaN is a quiet
// one (§6.2; Go's soft float agrees). A quiet NaN would not do: a custom
// LinkCost, or a NaN rate through hCost's c < 0 clamp, makes one, and it must
// read back as recorded. A slot holds its cost's bits XOR unrecorded, so the
// zero slot that make returns means nothing recorded.
const unrecorded = 0x7ff0_0000_0000_0001

// get returns node's record of request (origin, id), or 0, false as a map would.
func (t *floodTable) get(origin int, id uint64, node int) (float64, bool) {
	if origin < len(t.reqs) && id-1 < uint64(len(t.reqs[origin])) {
		if slots := t.reqs[origin][id-1]; node < len(slots) && slots[node] != 0 {
			return math.Float64frombits(slots[node] ^ unrecorded), true
		}
	}
	return 0, false
}

// set records cost in node's slot of request (origin, id), making the
// request's array on its first record.
func (t *floodTable) set(origin int, id uint64, node int, cost float64) {
	t.reqs = extend(t.reqs, origin+1)
	ids := extend(t.reqs[origin], int(id))
	t.reqs[origin] = ids
	ids[id-1] = extend(ids[id-1], max(node+1, t.nodes))
	ids[id-1][node] = math.Float64bits(cost) ^ unrecorded
}

// extend returns s with zeros appended up to length n.
func extend[T any](s []T, n int) []T { return append(s, make([]T, max(0, n-len(s)))...) }

// DSR is the reactive source-routing engine, specialized by a Variant into
// DSR, MTPR, MTPR+, DSRH and TITAN.
type DSR struct {
	env *Env
	v   Variant

	cache   map[int]*cachedRoute
	pending map[int]*discovery
	reqID   uint64
	seq     uint64

	stats Stats
}

var _ Protocol = (*DSR)(nil)

// NewDSRVariant builds a DSR-engine protocol from a variant description
// (a pinned one never discovers: pending stays nil, the flood table untouched).
func NewDSRVariant(env *Env, v Variant) *DSR {
	d := &DSR{env: env, v: v, cache: make(map[int]*cachedRoute)}
	if !v.Pinned {
		d.pending = make(map[int]*discovery)
	}
	return d
}

// Start implements Protocol. DSR is fully reactive: nothing to schedule.
func (d *DSR) Start() {}

// Stats implements Protocol.
func (d *DSR) Stats() Stats { return d.stats }

// Send implements Protocol. The packet stays on the stack unless it has to
// wait for a route: forward sends a copy, and only the buffer keeps one.
func (d *DSR) Send(dst int, bytes int, payload any, rate float64) {
	d.stats.DataSent++
	d.env.PM.OnActivity(power.ActivityData)
	d.seq++
	pkt := dataPacket{
		Src: d.env.ID, Dst: dst, Seq: d.seq,
		AppBytes: bytes, Payload: payload, Rate: rate, TTL: dataTTL,
	}
	if dst == d.env.ID {
		d.deliver(&pkt)
		return
	}
	if r, ok := d.cache[dst]; ok {
		pkt.Route = r.path
		d.forward(&pkt)
		return
	}
	if d.v.Pinned {
		d.stats.DataDropped++
		return
	}
	d.bufferAndDiscover(pkt)
}

func (d *DSR) bufferAndDiscover(pkt dataPacket) {
	dst := pkt.Dst
	disc, ok := d.pending[dst]
	if !ok {
		disc = &discovery{}
		d.pending[dst] = disc
		d.sendRREQ(dst, pkt.Rate)
		d.armRetry(dst, disc)
	}
	if len(disc.buffer) >= sendBufferCap {
		disc.buffer = disc.buffer[1:]
		d.stats.DataDropped++
	}
	disc.buffer = append(disc.buffer, &pkt)
}

func (d *DSR) sendRREQ(dst int, rate float64) {
	d.reqID++
	d.stats.RREQSent++
	req := &rreq{
		Origin: d.env.ID, Target: dst, ID: d.reqID,
		Path: []int{d.env.ID}, Rate: rate, TTL: rreqTTL,
	}
	d.env.MAC.SendBroadcast(&mac.Packet{
		Kind: mac.PacketControl, Bytes: req.bytes(), Payload: req,
	}, nil)
}

func (d *DSR) armRetry(dst int, disc *discovery) {
	timeout := discoveryTimeout << uint(disc.tries)
	disc.timer = d.env.Sim.ScheduleFor(sim.LayerRouting, timeout, func() {
		cur, ok := d.pending[dst]
		if !ok || cur != disc {
			return
		}
		disc.tries++
		if disc.tries >= discoveryRetries {
			d.stats.DataDropped += uint64(len(disc.buffer))
			delete(d.pending, dst)
			return
		}
		var rate float64
		if len(disc.buffer) > 0 {
			rate = disc.buffer[0].Rate
		}
		d.sendRREQ(dst, rate)
		d.armRetry(dst, disc)
	})
}

// HandlePacket dispatches packets handed up by the MAC.
func (d *DSR) HandlePacket(from int, pkt *mac.Packet) {
	switch msg := pkt.Payload.(type) {
	case *rreq:
		d.handleRREQ(from, msg)
	case *rrep:
		d.handleRREP(msg)
	case *rerr:
		d.handleRERR(msg)
	case *dataPacket:
		d.forward(msg)
	}
}

// linkCost evaluates the variant cost of the link from->me.
func (d *DSR) linkCost(from int, req *rreq) float64 {
	if d.v.LinkCost == nil {
		return 1
	}
	return d.v.LinkCost(d, from, req)
}

// handleRREQ answers or forwards a copy unless this node's slot of the flood
// table holds the request already (at a cost no higher, if cost-based).
func (d *DSR) handleRREQ(from int, req *rreq) {
	me := d.env.ID
	if req.Origin == me {
		return
	}
	target := req.Target == me
	cost := req.Cost + d.linkCost(from, req)
	if !target && indexOf(req.Path, me) >= 0 {
		return
	}
	floods := &d.env.Run.floods
	best, seenIt := floods.get(req.Origin, req.ID, me)
	if seenIt && (!d.v.CostBased || cost >= best) {
		return
	}
	floods.set(req.Origin, req.ID, me, cost)

	if target {
		route := append(append([]int{}, req.Path...), me)
		d.sendRREP(&rrep{
			Origin: req.Origin, Target: req.Target, ID: req.ID,
			Route: route, Cost: cost, Hop: len(route) - 1,
		})
		return
	}
	if req.TTL <= 1 {
		return
	}
	if !seenIt && d.v.Participate != nil && !d.v.Participate(d) {
		// Declined: poison the slot so later copies are ignored too.
		floods.set(req.Origin, req.ID, me, math.Inf(-1))
		return
	}

	s := d.env.take(sendRREQ)
	s.dsr = d
	s.req = rreq{
		Origin: req.Origin, Target: req.Target, ID: req.ID,
		Path: append(append(s.req.Path, req.Path...), d.env.ID),
		Cost: cost, Rate: req.Rate, TTL: req.TTL - 1,
	}
	s.pkt = mac.Packet{Kind: mac.PacketControl, Bytes: s.req.bytes(), Payload: &s.req}
	delay := jitter(d.env.RNG(), rreqJitterMax)
	if d.v.ForwardDelay != nil {
		delay += d.v.ForwardDelay(d)
	}
	d.env.Sim.ScheduleFor(sim.LayerRouting, delay, s.fireFn)
}

// fire broadcasts a forwarded RREQ once its jitter has elapsed, unless a
// strictly better copy has been forwarded meanwhile.
func (s *send) fire() {
	d := s.dsr
	if cur, _ := d.env.Run.floods.get(s.req.Origin, s.req.ID, d.env.ID); cur < s.req.Cost {
		s.pool.put(s)
		return
	}
	d.env.MAC.SendBroadcast(&s.pkt, s.doneFn)
}

func (d *DSR) sendRREP(rep *rrep) {
	d.stats.RREPSent++
	d.env.PM.OnActivity(power.ActivityRoute)
	if rep.Hop == 0 {
		return // degenerate single-node route
	}
	next := rep.Route[rep.Hop-1]
	fwd := *rep
	fwd.Hop--
	d.env.MAC.SendUnicast(next, &mac.Packet{
		Kind: mac.PacketControl, Bytes: rep.bytes(), Payload: &fwd,
	}, 0, nil)
}

func (d *DSR) handleRREP(rep *rrep) {
	if rep.Route[rep.Hop] != d.env.ID {
		return // stale forwarding state
	}
	d.env.PM.OnActivity(power.ActivityRoute)
	if rep.Hop == 0 {
		// We are the origin: install the route.
		if d.env.ID != rep.Origin {
			return
		}
		cur, ok := d.cache[rep.Target]
		if ok && d.v.CostBased && cur.cost <= rep.Cost {
			return
		}
		d.cache[rep.Target] = &cachedRoute{path: rep.Route, cost: rep.Cost}
		if disc, ok := d.pending[rep.Target]; ok {
			disc.timer.Cancel()
			delete(d.pending, rep.Target)
			for _, pkt := range disc.buffer {
				pkt.Route = rep.Route
				pkt.Hop = 0
				d.forward(pkt)
			}
		}
		return
	}
	d.sendRREP(rep)
}

// forward moves a data packet one hop along its source route, or delivers
// it. pkt is only read: received, it is the previous hop's send state.
func (d *DSR) forward(pkt *dataPacket) {
	if pkt.Dst == d.env.ID {
		d.deliver(pkt)
		return
	}
	i := pkt.Hop
	if i >= len(pkt.Route) || pkt.Route[i] != d.env.ID {
		i = indexOf(pkt.Route, d.env.ID)
		if i < 0 {
			d.stats.DataDropped++
			return
		}
	}
	if i+1 >= len(pkt.Route) {
		d.stats.DataDropped++
		return
	}
	ttl := pkt.TTL - 1
	if ttl <= 0 {
		d.stats.DataDropped++
		return
	}
	if pkt.Src != d.env.ID {
		d.stats.DataForwarded++
		d.env.PM.OnActivity(power.ActivityData)
	}
	d.env.sendHop(d, pkt.Route[i+1], pkt, i+1, ttl, d.v.PowerControl)
}

// hopFailed implements hopOwner.
func (d *DSR) hopFailed(next int, pkt *dataPacket) { d.linkBroken(d.env.ID, next, pkt) }

func (d *DSR) deliver(pkt *dataPacket) {
	d.stats.DataDelivered++
	d.env.PM.OnActivity(power.ActivityData)
	if d.env.Deliver != nil {
		d.env.Deliver(pkt.Src, pkt.Payload, pkt.AppBytes)
	}
}

// linkBroken reacts to a MAC-layer delivery failure: purge routes through
// the link and notify the packet source. A pinned variant does neither: a
// static design fails where it fails, which is part of what is measured.
func (d *DSR) linkBroken(u, v int, pkt *dataPacket) {
	d.stats.DataDropped++
	if d.v.Pinned {
		return
	}
	d.purgeLink(u, v)
	if pkt.Src == d.env.ID {
		return
	}
	i := indexOf(pkt.Route, d.env.ID)
	if i <= 0 {
		return
	}
	d.stats.RERRSent++
	e := &rerr{From: u, To: v, Dst: pkt.Src, Route: pkt.Route, Hop: i}
	d.forwardRERR(e)
}

func (d *DSR) forwardRERR(e *rerr) {
	prev := e.Route[e.Hop-1]
	fwd := *e
	fwd.Hop--
	d.env.MAC.SendUnicast(prev, &mac.Packet{
		Kind: mac.PacketControl, Bytes: rerrBytes, Payload: &fwd,
	}, 0, nil)
}

func (d *DSR) handleRERR(e *rerr) {
	d.purgeLink(e.From, e.To)
	if e.Dst == d.env.ID || e.Hop <= 0 || e.Route[e.Hop] != d.env.ID {
		return
	}
	d.forwardRERR(e)
}

// purgeLink removes cached routes that use the link u-v in either direction.
func (d *DSR) purgeLink(u, v int) {
	for dst, r := range d.cache {
		if hasLink(r.path, u, v) {
			delete(d.cache, dst)
		}
	}
}

// CachedRoute returns the cached path to dst, or nil (exposed for tests and
// relay-count metrics).
func (d *DSR) CachedRoute(dst int) []int {
	if r, ok := d.cache[dst]; ok {
		return append([]int{}, r.path...)
	}
	return nil
}
