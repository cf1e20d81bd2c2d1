package routing

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/radio"
	"eend/internal/sim"
)

// routingTranscriptSHA pins what the routing layer does over the script
// below, per protocol: every packet the MAC hands up (from, envelope and
// every field of the message, logged before the protocol sees it), every
// delivery to a sink, then each node's routing and MAC counters, energy,
// routes, and the kernel's event and timer tallies. It was captured at PR 23,
// when every hop was a fresh dataPacket copy, a fresh mac.Packet and a done
// closure, every DSDV dump a fresh entries slice and every forwarded RREQ a
// closure over its key and cost; a change to where a send keeps its state
// must reproduce it bit for bit. Run with -v to get the log and diff it
// against the one from the last good commit.
const routingTranscriptSHA = "29d9c515da1ae563355c68e3084a89941f19fa40c5d3b984a593586d26b8d707"

// transcriptPoints is the scripted field (Cabletron, 250 m range): a chain
// 0-1-2-3-5-7 at 200 m spacing, node 4 beside 2 so that 1->{2,4}->3 is a
// diamond whose two RREQ copies race, and node 6 out of everyone's range.
// Node 7 is in power-save mode, so its neighbour 5 has to announce every
// broadcast and every packet for it.
var transcriptPoints = []geom.Point{
	{X: 0}, {X: 200}, {X: 400}, {X: 600}, {X: 400, Y: 120}, {X: 800}, {X: 5000}, {X: 1000},
}

const farNode, psmNode = 6, 7

const transcriptSeed = 36

var transcriptStacks = []struct {
	name string
	mk   func(*Env) Protocol
	// wants are log fragments the script must reach under this protocol,
	// besides transcriptWants.
	wants []string
	// discovers: node 5's search for node 6 is retried to the limit.
	discovers bool
}{
	{"dsr", func(e *Env) Protocol { return NewDSR(e, false) }, reactiveWants, true},
	// The cost-based one: three forwards suppressed by a cheaper copy that
	// arrived within their jitter, with nothing failed or queued to blur the
	// count (see the checkpoint in the script).
	{"dsrh", func(e *Env) Protocol { return NewDSRH(e, true, true) },
		append([]string{"routing-timers=23 broadcasts=20 suppressed=3 failed=0 queued=0"}, reactiveWants...), true},
	{"titan", func(e *Env) Protocol { return NewTITAN(e, true) }, reactiveWants, true},
	{"pinned", func(e *Env) Protocol {
		return NewStatic(e, [][]int{{0, 1, 2, 3, 5}, {0, 1, 2, 3, 5, 7}, {5, 3, 2, 1, 0}, {0, 1, 2, farNode}}, true)
	}, nil, false},
	{"dsdv", func(e *Env) Protocol { return NewDSDV(e, false) }, proactiveWants, false},
	{"dsdvh", func(e *Env) Protocol { return NewDSDVH(e, true) }, proactiveWants, false},
}

var (
	// Delivery over five hops and to the power-saving leaf; the hop 2->6
	// failing twice at node 2; node 5 dropping all 25 packets for node 6; the
	// burst filling node 0's MAC queue and losing six packets to it.
	transcriptWants = []string{
		"deliver at=5 src=0", "deliver at=0 src=5", "deliver at=7 src=0",
		" DataDropped:2 ", "UnicastFailed:2 ", " DataDropped:25 ", "queued at 0: 64", "QueueDrops:6 ",
	}
	// The RERR for 2->6 reaching the source.
	reactiveWants = []string{"rx at=0 from=1 kind=2 bytes=20 *routing.rerr{From:2 To:6 Dst:0 "}
	// neighborLost at node 2 advertised with an odd sequence number.
	proactiveWants = []string{"rx at=1 from=2 kind=2", "{dst:6 metric:+Inf seq:3}"}
)

// noteInto returns a printf that writes one line to log, stamped with s's
// virtual time.
func noteInto(log *strings.Builder, s *sim.Simulator) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(log, "%d ", s.Now())
		fmt.Fprintf(log, format, args...)
		log.WriteByte('\n')
	}
}

// transcriptHorizon is when the script has played out and every queue is
// empty again.
const transcriptHorizon = 40 * time.Second

// startRoutingScript schedules the script on one protocol; the caller runs
// the testbed's simulator. Lines go to log as things happen.
func startRoutingScript(t *testing.T, mk func(*Env) Protocol, log *strings.Builder) *rtb {
	tb := newRTB(t, transcriptSeed, radio.Cabletron, transcriptPoints, mk)
	s := tb.sim
	note := noteInto(log, s)
	tb.onPacket = func(at, from int, pkt *mac.Packet) {
		var msg any
		switch m := pkt.Payload.(type) {
		case *dataPacket:
			msg = *m
		case *rreq:
			msg = *m
		case *rrep:
			msg = *m
		case *rerr:
			msg = *m
		case *dsdvUpdate:
			msg = *m
		}
		note("rx at=%d from=%d kind=%d bytes=%d %T%+v", at, from, pkt.Kind, pkt.Bytes, pkt.Payload, msg)
	}
	tb.onDeliver = func(at, src int, payload any, bytes int) {
		note("deliver at=%d src=%d bytes=%d payload=%v", at, src, bytes, payload)
	}
	tb.macs[psmNode].SetPowerMode(mac.PSM)

	at := func(d time.Duration, fn func()) { s.ScheduleAt(d, fn) }
	send := func(src, dst, n int, tag string) {
		for i := 0; i < n; i++ {
			tb.protos[src].Send(dst, 128, fmt.Sprintf("%s-%d", tag, i), 2048)
		}
	}
	macTotals := func() (bcast, failed uint64, queued int) {
		for _, m := range tb.macs {
			st := m.Stats()
			bcast, failed, queued = bcast+st.BroadcastSent, failed+st.UnicastFailed, queued+m.QueueLen()
		}
		return
	}

	// Clean multi-hop delivery, both ways, and to the power-saving leaf. The
	// proactive protocols have converged by now (first dumps fall in 0-15 s).
	for i := 0; i < 3; i++ {
		at(20*time.Second+time.Duration(i)*100*time.Millisecond, func() { send(0, 5, 1, fmt.Sprintf("clean%d", i)) })
	}
	at(20500*time.Millisecond, func() { send(5, 0, 2, "back"); send(0, psmNode, 1, "leaf") })
	// Every routing timer so far, in a reactive protocol, is a discovery
	// timeout (one per RREQ originated, all of them broadcast by now) or the
	// jitter of a forwarded RREQ, which ends in a broadcast unless the
	// forward was suppressed: the difference counts the suppressed ones.
	at(21900*time.Millisecond, func() {
		bcast, failed, queued := macTotals()
		note("checkpoint routing-timers=%d broadcasts=%d suppressed=%d failed=%d queued=%d",
			s.Timers(sim.LayerRouting), bcast, int64(s.Timers(sim.LayerRouting))-int64(bcast), failed, queued)
	})

	// Link break: a route over 2->6, which no frame can cross. The hop fails
	// at node 2 after the retry limit: DSR purges and sends a RERR back to
	// node 0, DSDV poisons the rows through 6 and advertises them with an
	// odd sequence number, a pinned route just drops.
	at(21950*time.Millisecond, func() {
		route := []int{0, 1, 2, farNode}
		for hop, id := range route[:3] {
			switch p := tb.protos[id].(type) {
			case *DSR:
				if id == 0 && !p.v.Pinned {
					p.cache[farNode] = &cachedRoute{path: route}
				}
			case *DSDV:
				if e := p.row(farNode); !e.present {
					p.rows++
				}
				*p.row(farNode) = dsdvEntry{present: true, next: route[hop+1], metric: float64(3 - hop), seq: 2}
			}
		}
	})
	at(22*time.Second, func() { send(0, farNode, 2, "break") })

	// Discovery that never succeeds: three RREQs with backoff, a send buffer
	// of 20 that 25 packets overflow, then the buffered packets dropped.
	at(25*time.Second, func() { send(5, farNode, 25, "lost") })

	// The leaf wakes up and goes back to sleep; DSDVH advertises both.
	for _, c := range []struct {
		at   time.Duration
		mode mac.PowerMode
	}{{26 * time.Second, mac.AM}, {28 * time.Second, mac.PSM}} {
		at(c.at, func() {
			tb.macs[psmNode].SetPowerMode(c.mode)
			if p, ok := tb.protos[psmNode].(*DSDV); ok {
				p.PMChanged(c.mode)
			}
		})
	}

	// MAC queue overflow: 70 packets into a 64-packet queue at once. The six
	// that do not fit are dropped without a callback.
	at(30*time.Second, func() {
		send(0, 5, 70, "burst")
		note("queued at 0: %d", tb.macs[0].QueueLen())
	})

	return tb
}

// runRoutingTranscript plays the script on one protocol and returns the log,
// closed by every node's final state.
func runRoutingTranscript(t *testing.T, mk func(*Env) Protocol) string {
	var log strings.Builder
	tb := startRoutingScript(t, mk, &log)
	s := tb.sim
	s.Run(transcriptHorizon)
	note := noteInto(&log, s)
	for i, p := range tb.protos {
		note("node %d routing=%+v mac=%+v energy=%+v queue=%d", i, p.Stats(), tb.macs[i].Stats(), tb.macs[i].Energy(), tb.macs[i].QueueLen())
		switch p := p.(type) {
		case *DSR:
			for dst := range tb.protos {
				if r := p.CachedRoute(dst); r != nil {
					note("node %d route to %d: %v", i, dst, r)
				}
			}
		case *DSDV:
			note("node %d table: %+v", i, p.Table())
		}
	}
	note("events=%d timers routing=%d mac=%d", s.Events(), s.Timers(sim.LayerRouting), s.Timers(sim.LayerMAC))
	return log.String()
}

func TestRoutingTranscript(t *testing.T) {
	var all strings.Builder
	for _, st := range transcriptStacks {
		log := runRoutingTranscript(t, st.mk)
		fmt.Fprintf(&all, "---- %s ----\n%s", st.name, log)
		for _, want := range slices.Concat(st.wants, transcriptWants) {
			if !strings.Contains(log, want) {
				t.Errorf("%s: transcript lacks %q", st.name, want)
			}
		}
		// Node 5's search for node 6, as node 3 hears it from its origin.
		const lostRREQ = "rx at=3 from=5 kind=2 bytes=20 *routing.rreq{Origin:5 Target:6 "
		if tries := strings.Count(log, lostRREQ); st.discovers && tries != discoveryRetries {
			t.Errorf("%s: node 5 asked for node 6 %d times, want %d", st.name, tries, discoveryRetries)
		}
	}
	log := all.String()
	sum := sha256.Sum256([]byte(log))
	if got := hex.EncodeToString(sum[:]); got != routingTranscriptSHA {
		t.Errorf("transcript SHA-256 = %s, want %s (%d lines; -v prints them)", got, routingTranscriptSHA, strings.Count(log, "\n"))
	}
	if testing.Verbose() {
		t.Log("\n" + log)
	}
}
