package routing

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"eend/internal/mac"
	"eend/internal/radio"
)

// checkSendPool holds the testbed's pool to the rows of ARCHITECTURE's "Send
// state" table. Every struct taken has been released by its done (or by the
// suppressed-forward check), was dropped with its packet at a full MAC queue,
// or is in flight; inFlight is how many the caller can account for (-1: it
// cannot, only the sign is checked). A struct is in a free list once, under
// its own kind, and holds no message; nothing a protocol keeps points into
// one.
func checkSendPool(t *testing.T, name string, tb *rtb, inFlight int) {
	t.Helper()
	p := &tb.run.sends
	var drops uint64
	for _, m := range tb.macs {
		drops += m.Stats().QueueDrops
	}
	out := int64(p.taken) - int64(p.released) - int64(drops)
	if out < 0 || inFlight >= 0 && out != int64(inFlight) {
		t.Errorf("%s: %d taken, %d released, %d dropped at full queues: %d unaccounted for, want %d in flight",
			name, p.taken, p.released, drops, out, inFlight)
	}
	seen := map[*send]bool{}
	pooledData := map[*dataPacket]bool{}
	pooledPath := map[*int]bool{}
	for kind, free := range p.free {
		for _, s := range free {
			if seen[s] {
				t.Errorf("%s: a struct is in the free lists twice", name)
			}
			seen[s] = true
			if !s.idle || int(s.kind) != kind || s.pool != p {
				t.Errorf("%s: free list %d holds a struct of kind %d, idle=%t", name, kind, s.kind, s.idle)
			}
			if !reflect.DeepEqual(s.data, dataPacket{}) || len(s.upd.entries) != 0 || s.pkt != (mac.Packet{}) ||
				!reflect.DeepEqual(s.req, rreq{Path: s.req.Path[:0]}) || s.owner != nil || s.dsr != nil {
				t.Errorf("%s: a released struct still holds a message: %+v", name, *s)
			}
			pooledData[&s.data] = true
			if path := s.req.Path[:cap(s.req.Path)]; len(path) > 0 {
				pooledPath[&path[0]] = true
			}
		}
	}
	if int64(len(seen)) > int64(p.taken) {
		t.Errorf("%s: %d structs in the free lists, only %d ever taken", name, len(seen), p.taken)
	}
	for id, proto := range tb.protos {
		d, ok := proto.(*DSR)
		if !ok {
			continue
		}
		for dst, disc := range d.pending {
			for _, pkt := range disc.buffer {
				if pooledData[pkt] {
					t.Errorf("%s: node %d buffers a pooled packet for %d", name, id, dst)
				}
			}
		}
		for dst, r := range d.cache {
			if pooledPath[&r.path[0]] {
				t.Errorf("%s: node %d's route to %d is a pooled RREQ's path", name, id, dst)
			}
		}
	}
}

// TestSendPoolAccounting plays the transcript's script — hidden terminals
// along the chain, hops that fail at the retry limit, a burst that overflows
// a MAC queue — and holds the pool to its rule twice: with the run stopped
// in the middle of the burst, where every queued packet is one struct in
// flight, and at the horizon, where nothing is.
func TestSendPoolAccounting(t *testing.T) {
	for _, st := range transcriptStacks {
		var log strings.Builder
		tb := startRoutingScript(t, st.mk, &log)
		tb.sim.Run(30*time.Second + 50*time.Millisecond)
		queued := 0
		for _, m := range tb.macs {
			queued += m.QueueLen()
		}
		if queued < 32 {
			t.Errorf("%s: %d packets queued in mid-burst, want the run stopped with the queues full", st.name, queued)
		}
		checkSendPool(t, st.name+" mid-burst", tb, queued)
		tb.sim.Run(transcriptHorizon)
		checkSendPool(t, st.name, tb, 0)
		if p := &tb.run.sends; p.taken < 200 || p.released == p.taken {
			t.Errorf("%s: %d taken, %d released: the script should take hundreds and lose some to a full queue",
				st.name, p.taken, p.released)
		}
	}
}

// TestSendStateDoesNotAllocate pins what the pool is for: once the free
// lists, the backing arrays they keep and the MAC's own state are warm, a
// data packet's trip down a chain, a DSDV full dump and a forwarded RREQ
// allocate nothing — in the routing layer or below it.
func TestSendStateDoesNotAllocate(t *testing.T) {
	payload := any(&struct{}{})
	static := func(e *Env) Protocol { return NewStatic(e, [][]int{{0, 1, 2, 3}}, true) }
	dsdv := func(e *Env) Protocol { return NewDSDV(e, false) }
	dsr := func(e *Env) Protocol { return NewDSR(e, false) }
	req := &rreq{Origin: 0, Target: 99, ID: 1, Path: []int{0}, TTL: rreqTTL}
	for _, c := range []struct {
		name   string
		mk     func(*Env) Protocol
		settle time.Duration // run this long first
		step   func(tb *rtb) // one send, followed by 50 ms of virtual time
		check  func(tb *rtb) uint64
	}{
		{"pinned hop", static, 0,
			func(tb *rtb) { tb.protos[0].Send(3, 128, payload, 0) },
			func(tb *rtb) uint64 { return uint64(tb.delivered[3]) }},
		{"dsdv hop", dsdv, 40 * time.Second,
			func(tb *rtb) { tb.protos[0].Send(3, 128, payload, 0) },
			func(tb *rtb) uint64 { return uint64(tb.delivered[3]) }},
		{"dsdv full dump", dsdv, 40 * time.Second,
			func(tb *rtb) { tb.protos[1].(*DSDV).broadcastFull() },
			func(tb *rtb) uint64 { return tb.macs[1].Stats().BroadcastSent }},
		// Node 1 hears the same request as new every time (its slot of the
		// flood table is cleared) and forwards it.
		{"forwarded rreq", dsr, 0,
			func(tb *rtb) {
				if f := &tb.run.floods; len(f.reqs) > 0 {
					f.reqs[req.Origin][req.ID-1][1] = 0
				}
				tb.protos[1].(*DSR).handleRREQ(0, req)
			},
			func(tb *rtb) uint64 { return tb.macs[1].Stats().BroadcastSent }},
	} {
		tb := newRTB(t, 1, radio.Cabletron, line4(200), c.mk)
		tb.sim.Run(c.settle)
		step := func() {
			c.step(tb)
			tb.sim.Run(tb.sim.Now() + 50*time.Millisecond)
		}
		for i := 0; i < 3; i++ {
			step() // warm the pool, the MAC's job list, the kernel's slab
		}
		before := c.check(tb)
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %v allocs per send, want 0", c.name, allocs)
		}
		if got := c.check(tb) - before; got != 101 {
			t.Errorf("%s: %d of 101 sends went through", c.name, got)
		}
		checkSendPool(t, c.name, tb, 0)
	}
}
