package mac

import (
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
)

// testbed wires a simulator, medium, coordinator and n MACs at fixed
// positions. Deliveries are recorded per node.
type testbed struct {
	sim   *sim.Simulator
	med   *phy.Medium
	coord *Coordinator
	macs  []*MAC
	recvd [][]*Packet
	from  [][]int
}

func newTestbed(t *testing.T, seed uint64, cfg Config, pts []geom.Point) *testbed {
	t.Helper()
	if cfg.Card.Name == "" {
		cfg.Card = radio.Cabletron
	}
	s := sim.New(seed)
	med := phy.NewMedium(s, phy.Config{RangeAt: cfg.Card.RangeAt})
	coord := NewCoordinator(s)
	tb := &testbed{
		sim:   s,
		med:   med,
		coord: coord,
		recvd: make([][]*Packet, len(pts)),
		from:  make([][]int, len(pts)),
	}
	for i, p := range pts {
		i := i
		m := New(s, med, coord, i, p, cfg, func(from int, pkt *Packet) {
			tb.recvd[i] = append(tb.recvd[i], pkt)
			tb.from[i] = append(tb.from[i], from)
		})
		tb.macs = append(tb.macs, m)
	}
	coord.Start()
	return tb
}

func dataPkt(n int) *Packet { return &Packet{Kind: PacketData, Bytes: n} }

func TestUnicastAMDelivery(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	var acked bool
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) { acked = ok })
	})
	tb.sim.Run(time.Second)
	if !acked {
		t.Fatal("unicast not acknowledged")
	}
	if len(tb.recvd[1]) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(tb.recvd[1]))
	}
	if tb.from[1][0] != 0 {
		t.Fatalf("from = %d, want 0", tb.from[1][0])
	}
	st := tb.macs[0].Stats()
	if st.UnicastSent != 1 || st.UnicastFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnicastEnergyBuckets(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, nil)
	})
	tb.sim.Run(time.Second)
	e0 := tb.macs[0].Energy()
	e1 := tb.macs[1].Energy()
	if e0.TxData <= 0 {
		t.Error("sender has no data TX energy")
	}
	if e0.TxControl <= 0 {
		t.Error("sender has no control TX energy (RTS)")
	}
	if e1.TxControl <= 0 {
		t.Error("receiver has no control TX energy (CTS/ACK)")
	}
	if e0.Rx <= 0 || e1.Rx <= 0 {
		t.Error("both sides must spend receive energy")
	}
	if e0.Idle <= 0 || e1.Idle <= 0 {
		t.Error("AM nodes idle between frames")
	}
	if e0.Sleep != 0 || e1.Sleep != 0 {
		t.Error("AM nodes must not sleep")
	}
}

func TestUnicastToUnreachableFails(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 2000, Y: 0}})
	var result *bool
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) { result = &ok })
	})
	tb.sim.Run(5 * time.Second)
	if result == nil {
		t.Fatal("done callback never fired")
	}
	if *result {
		t.Fatal("send to unreachable node reported success")
	}
	if st := tb.macs[0].Stats(); st.UnicastFailed != 1 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want 1 failure with retries", st)
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 200}, {X: 1500, Y: 0}}
	tb := newTestbed(t, 1, Config{}, pts)
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendBroadcast(dataPkt(64), nil)
	})
	tb.sim.Run(time.Second)
	if len(tb.recvd[1]) != 1 || len(tb.recvd[2]) != 1 {
		t.Fatalf("in-range receivers got %d/%d, want 1/1", len(tb.recvd[1]), len(tb.recvd[2]))
	}
	if len(tb.recvd[3]) != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
	if st := tb.macs[0].Stats(); st.BroadcastSent != 1 {
		t.Fatalf("BroadcastSent = %d, want 1", st.BroadcastSent)
	}
}

func TestTPCLearnedFromCTS(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	m0 := tb.macs[0]
	if m0.TxPowerFor(1) != m0.MaxPower() {
		t.Fatal("TPC table should start at max power")
	}
	tb.sim.Schedule(10*time.Millisecond, func() {
		m0.SendUnicast(1, dataPkt(128), 0, nil)
	})
	tb.sim.Run(time.Second)
	want := radio.Cabletron.TxPower(100 * 1.05) // includes the TPC margin
	got := m0.TxPowerFor(1)
	if got >= m0.MaxPower() {
		t.Fatalf("TPC not learned: %v", got)
	}
	if got != want {
		t.Fatalf("TPC power = %v, want %v", got, want)
	}
}

func TestContentionEventuallyDelivers(t *testing.T) {
	// Many senders to one receiver: CSMA retries must get all packets
	// through (low enough load).
	pts := []geom.Point{{X: 50, Y: 50}}
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}} {
		pts = append(pts, p)
	}
	tb := newTestbed(t, 3, Config{}, pts)
	okCount := 0
	tb.sim.Schedule(10*time.Millisecond, func() {
		for i := 1; i <= 4; i++ {
			tb.macs[i].SendUnicast(0, dataPkt(128), 0, func(ok bool) {
				if ok {
					okCount++
				}
			})
		}
	})
	tb.sim.Run(5 * time.Second)
	if okCount != 4 {
		t.Fatalf("delivered %d/4 under contention", okCount)
	}
	if len(tb.recvd[0]) != 4 {
		t.Fatalf("receiver got %d packets, want 4", len(tb.recvd[0]))
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.sim.Schedule(10*time.Millisecond, func() {
		for i := 0; i < queueCap+6; i++ {
			tb.macs[0].SendUnicast(1, dataPkt(512), 0, nil)
		}
	})
	tb.sim.Run(2 * time.Second)
	st := tb.macs[0].Stats()
	if st.QueueDrops != 6 {
		t.Fatalf("QueueDrops = %d, want 6", st.QueueDrops)
	}
	if len(tb.recvd[1]) != queueCap {
		t.Fatalf("receiver got %d, want the %d queued packets", len(tb.recvd[1]), queueCap)
	}
}

func TestPSMNodeSleepsWhenIdle(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[1].SetPowerMode(PSM)
	tb.sim.Run(10 * time.Second)
	e := tb.macs[1].Energy()
	// ATIM window is 20 ms of each 300 ms: about 6.7% awake.
	awakeFrac := e.Idle / radio.Cabletron.Idle / 10.0
	if awakeFrac > 0.10 {
		t.Fatalf("PSM node awake %.1f%% of the time, want < 10%%", awakeFrac*100)
	}
	if e.Sleep <= 0 {
		t.Fatal("PSM node accrued no sleep energy")
	}
	// An AM node by contrast idles all the time.
	eAM := tb.macs[0].Energy()
	if eAM.Idle < 8*radio.Cabletron.Idle {
		t.Fatalf("AM node idle energy = %v, want ~ 10 s worth", eAM.Idle)
	}
}

func TestUnicastToPSMViaATIM(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[1].SetPowerMode(PSM)
	var acked bool
	// Enqueue mid-interval: the MAC must wait for the next ATIM window.
	tb.sim.Schedule(150*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) { acked = ok })
	})
	tb.sim.Run(2 * time.Second)
	if !acked {
		t.Fatal("unicast to PSM node failed")
	}
	if len(tb.recvd[1]) != 1 {
		t.Fatalf("PSM node got %d packets, want 1", len(tb.recvd[1]))
	}
	if st := tb.macs[0].Stats(); st.ATIMSent == 0 {
		t.Fatal("no ATIM was sent for a PSM destination")
	}
}

func TestBroadcastWakesPSMNeighbors(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}})
	tb.macs[1].SetPowerMode(PSM)
	tb.macs[2].SetPowerMode(PSM)
	tb.sim.Schedule(150*time.Millisecond, func() {
		tb.macs[0].SendBroadcast(dataPkt(64), nil)
	})
	tb.sim.Run(2 * time.Second)
	if len(tb.recvd[1]) != 1 || len(tb.recvd[2]) != 1 {
		t.Fatalf("PSM nodes got %d/%d broadcasts, want 1/1",
			len(tb.recvd[1]), len(tb.recvd[2]))
	}
	if st := tb.macs[0].Stats(); st.ATIMSent == 0 {
		t.Fatal("broadcast to PSM neighborhood requires an announcement")
	}
}

func TestBroadcastHoldsPSMNodesAwake(t *testing.T) {
	// Without the advertised window, an announced broadcast keeps PSM
	// receivers awake for the whole beacon interval (the PSM cost the paper
	// highlights for DSDV-style protocols).
	run := func(advertised bool) float64 {
		cfg := Config{AdvertisedWindow: advertised}
		tb := newTestbed(t, 1, cfg, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
		tb.macs[1].SetPowerMode(PSM)
		// one broadcast per beacon interval for 30 intervals
		for i := 0; i < 30; i++ {
			at := time.Duration(i)*300*time.Millisecond + 150*time.Millisecond
			tb.sim.Schedule(at, func() { tb.macs[0].SendBroadcast(dataPkt(64), nil) })
		}
		tb.sim.Run(9 * time.Second)
		return tb.macs[1].Energy().Idle
	}
	plain := run(false)
	span := run(true)
	if span >= plain*0.7 {
		t.Fatalf("advertised window should cut idle energy: plain=%v span=%v", plain, span)
	}
	// Baseline PSM idle over 9 s is ~0.5 J (awake 6.7% of the time); the
	// broadcast holds should push it several times higher.
	if plain < 3*radio.Cabletron.Idle {
		t.Fatalf("announced broadcasts should keep node awake much longer: %v", plain)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		tb := newTestbed(t, 42, Config{}, []geom.Point{
			{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 80}, {X: 120, Y: 60},
		})
		tb.macs[3].SetPowerMode(PSM)
		tb.sim.Schedule(10*time.Millisecond, func() {
			tb.macs[0].SendBroadcast(dataPkt(64), nil)
			tb.macs[1].SendUnicast(0, dataPkt(128), 0, nil)
			tb.macs[2].SendUnicast(3, dataPkt(256), 0, nil)
		})
		tb.sim.Run(3 * time.Second)
		total := 0
		for _, r := range tb.recvd {
			total += len(r)
		}
		return tb.macs[0].Stats(), total
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("non-deterministic runs: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
}

func TestPowerModeString(t *testing.T) {
	if AM.String() != "AM" || PSM.String() != "PSM" {
		t.Error("unexpected PowerMode strings")
	}
	if PowerMode(0).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

func TestSetPowerModeValidation(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid mode")
		}
	}()
	tb.macs[0].SetPowerMode(PowerMode(99))
}

func TestSendUnicastValidation(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	tb.macs[0].SendUnicast(0, dataPkt(10), 0, nil)
}

func TestControlPacketsAtMaxPower(t *testing.T) {
	// A control packet with a low requested power must still go at max
	// power and be billed as control energy.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	pkt := &Packet{Kind: PacketControl, Bytes: 40}
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, pkt, 0.1, nil)
	})
	tb.sim.Run(time.Second)
	e := tb.macs[0].Energy()
	if e.TxData != 0 {
		t.Fatalf("control packet billed as data: %v", e.TxData)
	}
	if e.TxControl <= 0 {
		t.Fatal("no control energy recorded")
	}
}

func TestNeighborsAndLinkPower(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 600, Y: 0}})
	nb := tb.macs[0].NeighborsCached()
	if len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("NeighborsCached = %v, want [1]", nb)
	}
	want := radio.Cabletron.TxPower(100)
	if got := tb.macs[0].LinkTxPower(1); got != want {
		t.Fatalf("LinkTxPower = %v, want %v", got, want)
	}
}

func TestQueueLen(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	if tb.macs[0].QueueLen() != 0 {
		t.Fatal("queue should start empty")
	}
	tb.sim.Schedule(10*time.Millisecond, func() {
		for i := 0; i < 3; i++ {
			tb.macs[0].SendUnicast(1, dataPkt(128), 0, nil)
		}
		if tb.macs[0].QueueLen() != 3 {
			t.Errorf("QueueLen = %d, want 3", tb.macs[0].QueueLen())
		}
	})
	tb.sim.Run(time.Second)
	if tb.macs[0].QueueLen() != 0 {
		t.Fatal("queue should drain")
	}
}
