package routing

import (
	"math"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/phy"
	"eend/internal/power"
	"eend/internal/radio"
	"eend/internal/sim"
)

// rtb is a routing testbed: real simulator, medium and MACs, with a
// protocol factory per node.
type rtb struct {
	sim       *sim.Simulator
	med       *phy.Medium
	coord     *mac.Coordinator
	macs      []*mac.MAC
	protos    []Protocol
	delivered []int     // payload source ids delivered at each node
	run       *RunState // shared by the nodes, as network.Build shares it

	// Optional taps, read at call time: onPacket sees what the MAC hands up
	// before the protocol does, onDeliver what the protocol hands its sink.
	onPacket  func(at, from int, pkt *mac.Packet)
	onDeliver func(at, src int, payload any, bytes int)
}

func newRTB(t *testing.T, seed uint64, card radio.Card, pts []geom.Point,
	mk func(env *Env) Protocol) *rtb {
	t.Helper()
	s := sim.New(seed)
	med := phy.NewMedium(s, phy.Config{RangeAt: card.RangeAt})
	coord := mac.NewCoordinator(s)
	tb := &rtb{sim: s, med: med, coord: coord, delivered: make([]int, len(pts)), run: NewRunState(len(pts))}
	for i, p := range pts {
		i := i
		var proto Protocol
		m := mac.New(s, med, coord, i, p, mac.Config{Card: card},
			func(from int, pkt *mac.Packet) {
				if tb.onPacket != nil {
					tb.onPacket(i, from, pkt)
				}
				proto.HandlePacket(from, pkt)
			})
		env := &Env{
			ID:  i,
			Sim: s,
			MAC: m,
			PM:  &power.AlwaysActive{Node: m},
			Deliver: func(src int, payload any, bytes int) {
				tb.delivered[i]++
				if tb.onDeliver != nil {
					tb.onDeliver(i, src, payload, bytes)
				}
			},
			Bandwidth: phy.DefaultBandwidth,
			Run:       tb.run,
		}
		proto = mk(env)
		tb.macs = append(tb.macs, m)
		tb.protos = append(tb.protos, proto)
	}
	coord.Start()
	for i := range tb.protos {
		tb.macs[i].SetPowerMode(mac.AM)
		tb.protos[i].Start()
	}
	return tb
}

func line4(spacing float64) []geom.Point {
	return []geom.Point{
		{X: 0, Y: 0}, {X: spacing, Y: 0}, {X: 2 * spacing, Y: 0}, {X: 3 * spacing, Y: 0},
	}
}

func TestDSRDiscoversRouteAndDelivers(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.protos[0].Send(3, 128, nil, 0)
	})
	tb.sim.Run(2 * time.Second)
	if tb.delivered[3] != 1 {
		t.Fatalf("delivered = %d, want 1", tb.delivered[3])
	}
	d := tb.protos[0].(*DSR)
	route := d.CachedRoute(3)
	want := []int{0, 1, 2, 3}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
	st := d.Stats()
	if st.DataSent != 1 || st.RREQSent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMTPRvsMTPRPlusRouteShape(t *testing.T) {
	// Line 0-1-2 at 100 m spacing (Cabletron). Direct 0->2 (200 m) is in
	// range. MTPR (Eq. 10, amplifier power only) prefers two short hops:
	// 2*Pt(100) << Pt(200). MTPR+ (Eq. 11) adds Pbase+Prx per hop, which
	// dwarfs Pt on this card, so it prefers the direct route.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}

	mtpr := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol { return NewMTPR(e) })
	mtpr.sim.Schedule(10*time.Millisecond, func() { mtpr.protos[0].Send(2, 128, nil, 0) })
	mtpr.sim.Run(2 * time.Second)
	if got := mtpr.protos[0].(*DSR).CachedRoute(2); len(got) != 3 {
		t.Errorf("MTPR route = %v, want the 2-hop path", got)
	}

	plus := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol { return NewMTPRPlus(e) })
	plus.sim.Schedule(10*time.Millisecond, func() { plus.protos[0].Send(2, 128, nil, 0) })
	plus.sim.Run(2 * time.Second)
	if got := plus.protos[0].(*DSR).CachedRoute(2); len(got) != 2 {
		t.Errorf("MTPR+ route = %v, want the direct path", got)
	}
}

func TestDSRHAvoidsPowerSavingRelay(t *testing.T) {
	// Diamond: 0 -> {1, 2} -> 3, with 0-3 out of range. Node 1 is in PSM,
	// node 2 in AM. DSRH's h cost (Eq. 12) charges Pidle for recruiting the
	// power-saving relay, so the route must go through node 2.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 150, Y: 100}, {X: 150, Y: -100}, {X: 300, Y: 0},
	}
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewDSRH(e, false, false)
	})
	tb.macs[1].SetPowerMode(mac.PSM)
	tb.sim.Schedule(350*time.Millisecond, func() { tb.protos[0].Send(3, 128, nil, 0) })
	tb.sim.Run(3 * time.Second)
	route := tb.protos[0].(*DSR).CachedRoute(3)
	if len(route) != 3 || route[1] != 2 {
		t.Fatalf("route = %v, want via the active relay 2", route)
	}
	if tb.delivered[3] != 1 {
		t.Fatalf("delivered = %d, want 1", tb.delivered[3])
	}
}

func TestDSRHRateScalesCost(t *testing.T) {
	// With rate information, h scales the communication term by r/B; with
	// tiny r the PSM penalty dominates even more. Both must still deliver.
	pts := line4(150)
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewDSRH(e, true, false)
	})
	tb.sim.Schedule(10*time.Millisecond, func() { tb.protos[0].Send(3, 128, nil, 2048) })
	tb.sim.Run(2 * time.Second)
	if tb.delivered[3] != 1 {
		t.Fatalf("DSRH(rate) delivered = %d, want 1", tb.delivered[3])
	}
}

func TestRERRPurgesCachedRoutes(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	d := tb.protos[0].(*DSR)
	d.cache[3] = &cachedRoute{path: []int{0, 1, 2, 3}}
	d.cache[2] = &cachedRoute{path: []int{0, 1, 2}}
	d.handleRERR(&rerr{From: 1, To: 2, Dst: 0, Route: []int{0, 1, 2, 3}, Hop: 0})
	if d.CachedRoute(3) != nil || d.CachedRoute(2) != nil {
		t.Fatal("routes through the broken link must be purged")
	}
}

func TestRERRKeepsUnrelatedRoutes(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	d := tb.protos[0].(*DSR)
	d.cache[3] = &cachedRoute{path: []int{0, 1, 3}}
	d.handleRERR(&rerr{From: 1, To: 2, Dst: 0, Route: []int{0, 1, 2}, Hop: 0})
	if d.CachedRoute(3) == nil {
		t.Fatal("route not using the broken link must survive")
	}
}

func TestDiscoveryRetriesAndGivesUp(t *testing.T) {
	// Node 1 is unreachable: the source must retry discovery with backoff
	// and eventually drop the buffered packets.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}}
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.protos[0].Send(1, 128, nil, 0)
		tb.protos[0].Send(1, 128, nil, 0)
	})
	tb.sim.Run(20 * time.Second)
	d := tb.protos[0].(*DSR)
	st := d.Stats()
	if st.RREQSent != discoveryRetries {
		t.Fatalf("RREQSent = %d, want %d (initial + retries)", st.RREQSent, discoveryRetries)
	}
	if st.DataDropped != 2 {
		t.Fatalf("DataDropped = %d, want both buffered packets", st.DataDropped)
	}
	if len(d.pending) != 0 {
		t.Fatal("discovery state must be cleaned up")
	}
}

func TestSendBufferCapDropsOldest(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}}
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	tb.sim.Schedule(10*time.Millisecond, func() {
		for i := 0; i < sendBufferCap+5; i++ {
			tb.protos[0].Send(1, 128, nil, 0)
		}
	})
	tb.sim.Run(100 * time.Millisecond)
	d := tb.protos[0].(*DSR)
	if got := len(d.pending[1].buffer); got != sendBufferCap {
		t.Fatalf("buffer len = %d, want cap %d", got, sendBufferCap)
	}
	if d.Stats().DataDropped != 5 {
		t.Fatalf("DataDropped = %d, want 5 overflow drops", d.Stats().DataDropped)
	}
}

func TestSelfSendDeliversLocally(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSR(e, false)
	})
	tb.sim.Schedule(10*time.Millisecond, func() { tb.protos[0].Send(0, 64, nil, 0) })
	tb.sim.Run(time.Second)
	if tb.delivered[0] != 1 {
		t.Fatalf("self-send delivered = %d, want 1", tb.delivered[0])
	}
	if tb.protos[0].(*DSR).Stats().RREQSent != 0 {
		t.Fatal("self-send must not trigger discovery")
	}
}

func TestTITANParticipationBiasedByBackbone(t *testing.T) {
	// A power-saving node surrounded by active (backbone) neighbors should
	// often decline route discovery; with no backbone it must always join.
	pts := []geom.Point{
		{X: 0, Y: 0},
		{X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: 50, Y: 50},
	}
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewTITAN(e, false)
	})
	titan := tb.protos[4].(*DSR)

	// No backbone: all neighbors in PSM.
	for _, m := range tb.macs {
		m.SetPowerMode(mac.PSM)
	}
	for i := 0; i < 50; i++ {
		if !titan.v.Participate(titan) {
			t.Fatal("with no backbone the node must always participate")
		}
	}

	// Strong backbone: all neighbors AM, node 4 in PSM.
	for i := 0; i < 4; i++ {
		tb.macs[i].SetPowerMode(mac.AM)
	}
	declined := 0
	for i := 0; i < 200; i++ {
		if !titan.v.Participate(titan) {
			declined++
		}
	}
	if declined < 100 {
		t.Fatalf("declined only %d/200 with a full backbone; want mostly declining", declined)
	}

	// Active nodes always participate.
	tb.macs[4].SetPowerMode(mac.AM)
	for i := 0; i < 50; i++ {
		if !titan.v.Participate(titan) {
			t.Fatal("AM nodes always participate")
		}
	}
}

func TestHCostProperties(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(150), func(e *Env) Protocol {
		return NewDSRH(e, false, false)
	})
	d := tb.protos[1].(*DSR)
	// AM: plain c(u,v) >= 0.
	am := hCost(d, 0, 1.0)
	if am < 0 {
		t.Fatalf("h cost negative: %v", am)
	}
	// PSM adds exactly Pidle.
	tb.macs[1].SetPowerMode(mac.PSM)
	psm := hCost(d, 0, 1.0)
	if diff := psm - am - radio.Cabletron.Idle; math.Abs(diff) > 1e-12 {
		t.Fatalf("PSM penalty = %v, want Pidle %v", psm-am, radio.Cabletron.Idle)
	}
	// Smaller rate fraction shrinks the communication term.
	tb.macs[1].SetPowerMode(mac.AM)
	small := hCost(d, 0, 0.01)
	if small >= am {
		t.Fatalf("rb=0.01 cost %v should be below rb=1 cost %v", small, am)
	}
}

func TestCostBasedRREQPrefersCheaperLateRoute(t *testing.T) {
	// Asymmetric diamond: 0 -> 1 -> 3 uses two long hops; 0 -> 2 -> 3 two
	// short ones. For MTPR the short-hop route must win even though both
	// RREQ copies race.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 120, Y: 120}, {X: 120, Y: -40}, {X: 240, Y: 0},
	}
	tb := newRTB(t, 3, radio.Cabletron, pts, func(e *Env) Protocol { return NewMTPR(e) })
	tb.sim.Schedule(10*time.Millisecond, func() { tb.protos[0].Send(3, 128, nil, 0) })
	tb.sim.Run(2 * time.Second)
	route := tb.protos[0].(*DSR).CachedRoute(3)
	if len(route) != 3 || route[1] != 2 {
		t.Fatalf("route = %v, want via the cheaper relay 2", route)
	}
}

// TestPinnedVariantHasNoControlPlane: static routing is the DSR engine with
// Variant.Pinned. A send without a route and a hop that fails at the MAC —
// at the source or at a relay — each cost one DataDropped and nothing else:
// no RREQ, no RERR, and the cached route is still there for the next packet.
func TestPinnedVariantHasNoControlPlane(t *testing.T) {
	// 0, 1, 2 in a 200 m chain; 3 is 700 m from its nearest neighbour, so
	// any hop to it fails at the MAC (Cabletron range 250 m).
	pts := []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 1100, Y: 0}}
	routes := [][]int{{0, 1, 2}, {0, 1, 3}, {2, 3}}
	tb := newRTB(t, 1, radio.Cabletron, pts, func(e *Env) Protocol {
		return NewStatic(e, routes, true)
	})
	dropped := func(id int) uint64 { return tb.protos[id].Stats().DataDropped }

	tb.protos[1].Send(0, 128, nil, 0) // node 1 originates no route
	if got := dropped(1); got != 1 {
		t.Fatalf("routeless send: DataDropped = %d, want 1", got)
	}
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.protos[0].Send(2, 128, nil, 0) // delivered over two hops
		tb.protos[0].Send(3, 128, nil, 0) // fails at relay 1
		tb.protos[2].Send(3, 128, nil, 0) // fails at its source
	})
	tb.sim.Run(2 * time.Second)
	if tb.delivered[2] != 1 || tb.delivered[3] != 0 {
		t.Fatalf("delivered = %v, want one packet at node 2 only", tb.delivered)
	}
	if dropped(0) != 0 || dropped(1) != 2 || dropped(2) != 1 {
		t.Fatalf("DataDropped = %d/%d/%d at nodes 0/1/2, want 0/2/1", dropped(0), dropped(1), dropped(2))
	}
	tb.protos[2].Send(3, 128, nil, 0) // the pinned route is used again, and fails again
	tb.sim.Run(4 * time.Second)
	if got := dropped(2); got != 2 {
		t.Fatalf("second failed hop: DataDropped = %d, want 2", got)
	}
	for id, p := range tb.protos {
		if st := p.Stats(); st.RREQSent != 0 || st.RREPSent != 0 || st.RERRSent != 0 {
			t.Errorf("node %d sent control traffic: %+v", id, st)
		}
	}
	if got := tb.protos[0].(*DSR).CachedRoute(3); len(got) != 3 {
		t.Errorf("node 0 route to 3 = %v, want the pinned [0 1 3] kept after its relay failed", got)
	}
	if got := tb.protos[2].(*DSR).CachedRoute(3); len(got) != 2 {
		t.Errorf("node 2 route to 3 = %v, want the pinned [2 3] kept after two MAC failures", got)
	}
	if d := tb.protos[0].(*DSR); d.pending != nil || tb.run.floods.reqs != nil {
		t.Error("pinned variant allocated discovery state")
	}
}

func TestDSDVNeighborLostPoisonsRoutes(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSDV(e, false)
	})
	d := tb.protos[0].(*DSDV)
	*d.row(2) = dsdvEntry{present: true, next: 1, metric: 2, seq: 4}
	*d.row(3) = dsdvEntry{present: true, next: 1, metric: 3, seq: 6}
	d.neighborLost(1)
	for _, dst := range []int{2, 3} {
		e := d.table[dst]
		if !math.IsInf(e.metric, 1) {
			t.Errorf("route to %d not poisoned", dst)
		}
		if e.seq%2 == 0 {
			t.Errorf("broken route to %d must carry an odd sequence", dst)
		}
	}
}

func TestDSDVUpdateRules(t *testing.T) {
	tb := newRTB(t, 1, radio.Cabletron, line4(200), func(e *Env) Protocol {
		return NewDSDV(e, false)
	})
	d := tb.protos[0].(*DSDV)
	d.Start()

	// New destination learned.
	d.handleUpdate(1, &dsdvUpdate{entries: []advEntry{{dst: 3, metric: 2, seq: 10}}})
	if e := d.table[3]; !e.present || e.next != 1 || e.metric != 3 {
		t.Fatalf("entry = %+v", d.table[3])
	}
	// Same seq, worse metric: ignored.
	d.handleUpdate(2, &dsdvUpdate{entries: []advEntry{{dst: 3, metric: 5, seq: 10}}})
	if d.table[3].next != 1 {
		t.Fatal("worse same-seq advertisement must not replace route")
	}
	// Same seq, better metric: adopted.
	d.handleUpdate(2, &dsdvUpdate{entries: []advEntry{{dst: 3, metric: 1, seq: 10}}})
	if d.table[3].next != 2 || d.table[3].metric != 2 {
		t.Fatalf("better same-seq advertisement should win: %+v", d.table[3])
	}
	// Newer seq wins regardless of metric.
	d.handleUpdate(1, &dsdvUpdate{entries: []advEntry{{dst: 3, metric: 9, seq: 12}}})
	if d.table[3].next != 1 || d.table[3].metric != 10 {
		t.Fatalf("newer seq should win: %+v", d.table[3])
	}
	// Broken advertisement from a node that is not our next hop: ignored.
	d.handleUpdate(2, &dsdvUpdate{entries: []advEntry{{dst: 3, metric: math.Inf(1), seq: 13}}})
	if math.IsInf(d.table[3].metric, 1) {
		t.Fatal("unrelated broken advertisement must not poison our route")
	}
	// Own entry never overwritten.
	d.handleUpdate(1, &dsdvUpdate{entries: []advEntry{{dst: 0, metric: 7, seq: 99}}})
	if d.table[0].metric != 0 || d.table[0].next != 0 {
		t.Fatal("self entry must be immutable")
	}
}
