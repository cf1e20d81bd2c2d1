package mac

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
)

// transcriptSHA pins the MAC's observable behaviour over the script below:
// every frame that ends on the air, every delivery and every DoneFunc call,
// in order, then each MAC's counters and energy. It was captured at PR 19,
// when every frame was a heap object and every continuation a closure; a
// change to how the exchange keeps its state must reproduce it bit for bit.
// A mismatch prints nothing useful by itself: run with -v to get the log and
// diff it against the one from the last good commit.
const transcriptSHA = "bd08f58d8f986eef69a5fdf1cfb32ed3aa0b94ceef8f1b40d5ff9dab551e1977"

// recorder is a phy.Listener that is not a MAC: it sits within every
// sender's range, never transmits, and writes one line per frame end. Its
// hooks let the script react to a frame at the instant it ends (the
// recorder is attached last, so every MAC has already seen that frame).
type recorder struct {
	id    int
	pos   geom.Point
	sim   *sim.Simulator
	macs  []*MAC
	log   strings.Builder
	hooks []*frameHook
}

// frameHook fires once, on the first decoded frame that matches.
type frameHook struct {
	typ      frameType
	src, dst int
	fn       func()
	fired    bool
}

func (r *recorder) NodeID() int        { return r.id }
func (r *recorder) Pos() geom.Point    { return r.pos }
func (r *recorder) CanReceive() bool   { return true }
func (r *recorder) RxBegin(*phy.Frame) {}

func (r *recorder) RxEnd(f *phy.Frame, ok bool) {
	fr := f.Payload.(*frame)
	awake := 0
	for i, m := range r.macs {
		if m.Awake() {
			awake |= 1 << i
		}
	}
	fmt.Fprintf(&r.log, "%d frame %v %d>%d bytes=%d power=%v ok=%t seq=%d nav=%d cts=%v awake=%05b\n",
		r.sim.Now(), fr.typ, f.Src, f.Dst, f.Bytes, f.Power, ok, fr.seq, fr.navUntil, fr.ctsPower, awake)
	for _, h := range r.hooks {
		if !h.fired && h.typ == fr.typ && h.src == f.Src && h.dst == f.Dst {
			h.fired = true
			h.fn()
		}
	}
}

func (r *recorder) note(format string, args ...any) {
	fmt.Fprintf(&r.log, "%d ", r.sim.Now())
	fmt.Fprintf(&r.log, format, args...)
	r.log.WriteByte('\n')
}

// on arms a one-shot hook for the next matching frame end.
func (r *recorder) on(typ frameType, src, dst int, fn func()) {
	r.hooks = append(r.hooks, &frameHook{typ: typ, src: src, dst: dst, fn: fn})
}

// runTranscript plays the script on five MACs — 0, 1 and 2 in a triangle
// with ~95-100 m sides, 3 out of everyone's range, 4 a hidden terminal that
// only 1 (and the recorder) can hear — and returns the log.
func runTranscript(cfg Config) string {
	cfg.Card = radio.Cabletron
	s := sim.New(11)
	med := phy.NewMedium(s, phy.Config{RangeAt: cfg.Card.RangeAt})
	coord := NewCoordinator(s)
	r := &recorder{id: 100, pos: geom.Point{X: 50, Y: 30}, sim: s}
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 80}, {X: 2000, Y: 0}, {X: 290, Y: 0}}
	for i, p := range pts {
		i := i
		r.macs = append(r.macs, New(s, med, coord, i, p, cfg, func(from int, pkt *Packet) {
			r.note("deliver at=%d from=%d bytes=%d tag=%v", i, from, pkt.Bytes, pkt.Payload)
		}))
	}
	med.Attach(r)
	coord.Start()
	m := r.macs

	at := func(t time.Duration, fn func()) { s.ScheduleAt(t, fn) }
	done := func(tag string) DoneFunc {
		return func(ok bool) { r.note("done %s ok=%t", tag, ok) }
	}
	unicast := func(src, dst, bytes int, power float64, tag string) {
		m[src].SendUnicast(dst, &Packet{Kind: PacketData, Bytes: bytes, Payload: tag}, power, done(tag))
	}
	// blink puts a node's radio to sleep for 100 µs from now: long enough to
	// swallow the SIFS response it owes, short enough to be back in AM
	// before the sender's timeout fires.
	blink := func(id int) func() {
		return func() {
			r.note("blink %d", id)
			m[id].SetPowerMode(PSM)
			s.Schedule(100*time.Microsecond, func() { m[id].SetPowerMode(AM) })
		}
	}

	// A clean RTS/CTS/DATA/ACK exchange, then one at the learned TPC power.
	at(10*time.Millisecond, func() { unicast(0, 1, 128, 0, "clean") })
	at(50*time.Millisecond, func() { unicast(0, 1, 128, m[0].TxPowerFor(1), "clean-tpc") })

	// Lost CTS: the receiver sleeps through the SIFS after the RTS.
	at(500*time.Millisecond, func() {
		r.on(frameRTS, 0, 1, blink(1))
		unicast(0, 1, 256, 0, "lost-cts")
	})

	// Lost ACK: the receiver delivers the data, sleeps through the SIFS, and
	// must filter the retransmission as a duplicate.
	at(1000*time.Millisecond, func() {
		r.on(frameData, 0, 1, blink(1))
		unicast(0, 1, 256, m[0].TxPowerFor(1), "lost-ack")
	})

	// Retry-limit failure: nobody answers.
	at(1500*time.Millisecond, func() { unicast(0, 3, 64, 0, "unreachable") })

	// Queue overflow: 64 fit, six are dropped without a callback.
	at(2000*time.Millisecond, func() {
		for i := 0; i < queueCap+6; i++ {
			unicast(0, 1, 64, 0, fmt.Sprintf("burst-%d", i))
		}
		r.note("queued %d", m[0].QueueLen())
	})

	// Broadcast with every neighbour in AM: straight onto the air.
	at(2500*time.Millisecond, func() {
		m[0].SendBroadcast(&Packet{Kind: PacketControl, Bytes: 64, Payload: "bcast-am"}, done("bcast-am"))
	})

	// Broadcast with a PSM neighbour: announced in the next window, sent
	// after it; with AdvertisedWindow node 2 sleeps once it has arrived.
	at(2750*time.Millisecond, func() { m[2].SetPowerMode(PSM) })
	at(2800*time.Millisecond, func() {
		m[0].SendBroadcast(&Packet{Kind: PacketData, Bytes: 64, Payload: "bcast-psm"}, done("bcast-psm"))
	})
	at(3100*time.Millisecond, func() { r.note("mid-interval, node 2 awake=%t", m[2].Awake()) })

	// Unicast ATIM handshake to the PSM node, data after the window.
	at(3450*time.Millisecond, func() { unicast(0, 2, 128, 0, "atim") })

	// Missed windows: a PSM destination that never answers the ATIM.
	at(4000*time.Millisecond, func() { m[3].SetPowerMode(PSM) })
	at(4010*time.Millisecond, func() { unicast(1, 3, 64, 0, "missed-window") })

	// SetPowerMode on the sender in the middle of its own exchange.
	at(5500*time.Millisecond, func() {
		r.on(frameRTS, 1, 0, func() {
			r.note("sender to PSM")
			m[1].SetPowerMode(PSM)
		})
		unicast(1, 0, 128, 0, "sender-psm")
	})
	at(5600*time.Millisecond, func() { m[1].SetPowerMode(AM) })

	// Everything at once: crossing unicasts, a PSM sender, a broadcast that
	// must be announced, and responses owed while the MAC is busy itself.
	at(6000*time.Millisecond, func() {
		unicast(0, 1, 512, m[0].TxPowerFor(1), "mix-0>1")
		unicast(1, 0, 512, 0, "mix-1>0")
		unicast(2, 0, 256, 0, "mix-2>0")
		unicast(1, 2, 256, 0, "mix-1>2")
		m[1].SendBroadcast(&Packet{Kind: PacketControl, Bytes: 96, Payload: "mix-bcast"}, done("mix-bcast"))
		unicast(0, 2, 64, 0, "mix-0>2")
	})

	// Contention: three senders in one another's range and a hidden terminal
	// that cannot sense 0 or 2, so frames collide at 1 and exchanges restart.
	at(6950*time.Millisecond, func() { m[2].SetPowerMode(AM) })
	at(7000*time.Millisecond, func() {
		for i := 0; i < 12; i++ {
			for src := 0; src < 3; src++ {
				dst := (src + 1 + i%2) % 3
				unicast(src, dst, 200, m[src].TxPowerFor(dst), fmt.Sprintf("contend-%d>%d-%d", src, dst, i))
			}
			unicast(4, 1, 200, 0, fmt.Sprintf("hidden-%d", i))
		}
	})

	s.Run(8 * time.Second)
	for i, mc := range m {
		r.note("mac %d stats=%+v energy=%+v queue=%d", i, mc.Stats(), mc.Energy(), mc.QueueLen())
	}
	return r.log.String()
}

func TestExchangeTranscript(t *testing.T) {
	log := runTranscript(Config{}) + "---- advertised window ----\n" + runTranscript(Config{AdvertisedWindow: true})
	sum := sha256.Sum256([]byte(log))
	if got := hex.EncodeToString(sum[:]); got != transcriptSHA {
		t.Errorf("transcript SHA-256 = %s, want %s (%d lines; -v prints them)", got, transcriptSHA, strings.Count(log, "\n"))
	}
	if testing.Verbose() {
		t.Log("\n" + log)
	}
	// The script must actually reach the cases it is named for.
	for _, want := range []string{
		"done clean ok=true", "done lost-cts ok=true", "done lost-ack ok=true",
		"done unreachable ok=false", "done burst-63 ok=true", "queued 64",
		"done bcast-am ok=true", "done bcast-psm ok=true", "done atim ok=true",
		"done missed-window ok=false", "done sender-psm ok=true", "done mix-0>2 ok=true",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("transcript lacks %q", want)
		}
	}
	if strings.Contains(log, "done burst-64") {
		t.Error("a packet dropped at the full queue had its DoneFunc called")
	}
}

// TestUnicastExchangeDoesNotAllocate pins what the exchange-state fields are
// for: once the free lists are warm, a packet's whole trip through the MAC —
// queue, backoff, RTS, CTS, DATA, ACK, both timeouts armed and cancelled,
// delivery and the done callback — allocates nothing, and neither does a
// broadcast. The packet and the callbacks are the caller's and are reused.
func TestUnicastExchangeDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := NewCoordinator(s)
	delivered, acked := 0, 0
	a := New(s, med, coord, 0, geom.Point{}, Config{Card: radio.Cabletron}, nil)
	New(s, med, coord, 1, geom.Point{X: 100}, Config{Card: radio.Cabletron},
		func(int, *Packet) { delivered++ })
	coord.Start()
	pkt := &Packet{Kind: PacketData, Bytes: 128}
	done := func(ok bool) {
		if ok {
			acked++
		}
	}
	for name, send := range map[string]func(){
		"unicast":   func() { a.SendUnicast(1, pkt, 0, done) },
		"broadcast": func() { a.SendBroadcast(pkt, done) },
	} {
		delivered, acked = 0, 0
		exchange := func() {
			send()
			s.Run(s.Now() + 5*time.Millisecond)
		}
		exchange() // warm the job free list, the kernel's slab, the medium's pools
		if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
			t.Errorf("%s: %v allocs per exchange, want 0", name, allocs)
		}
		if delivered != 202 || acked != 202 || a.QueueLen() != 0 {
			t.Errorf("%s: delivered %d, acked %d of 202, %d left queued", name, delivered, acked, a.QueueLen())
		}
	}
}

// TestDoneFiresAfterDelivery holds the ordering DoneFunc promises and the
// routing layer's send state rests on: a broadcast's done comes after every
// receiver's delivery callback (the frame has left the air, not merely gone
// onto it), a unicast's after its receiver's — so a sender that reuses the
// packet from done never changes it under a reader.
func TestDoneFiresAfterDelivery(t *testing.T) {
	s := sim.New(3)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := NewCoordinator(s)
	var order []string
	var macs []*MAC
	for i, p := range []geom.Point{{}, {X: 100}, {Y: 100}, {X: -100}} {
		macs = append(macs, New(s, med, coord, i, p, Config{Card: radio.Cabletron},
			func(int, *Packet) { order = append(order, fmt.Sprintf("deliver@%d", i)) }))
	}
	coord.Start()
	done := func(ok bool) { order = append(order, fmt.Sprintf("done ok=%t", ok)) }
	pkt := &Packet{Kind: PacketData, Bytes: 128}
	for _, c := range []struct {
		name string
		send func()
		want int // deliveries before done
	}{
		{"broadcast", func() { macs[0].SendBroadcast(pkt, done) }, 3},
		{"unicast", func() { macs[0].SendUnicast(2, pkt, 0, done) }, 1},
	} {
		order = order[:0]
		c.send()
		s.Run(s.Now() + 10*time.Millisecond)
		if len(order) != c.want+1 || order[c.want] != "done ok=true" {
			t.Errorf("%s: callbacks ran as %v, want %d deliveries and then done", c.name, order, c.want)
		}
	}
}
