package mac

import (
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
)

// Additional PSM and edge-case MAC tests beyond mac_test.go.

func TestPSMNodeWakesToTransmit(t *testing.T) {
	// A PSM node with an outgoing packet for an AM neighbor transmits
	// without waiting for a window.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[0].SetPowerMode(PSM)
	var acked bool
	var ackedAt time.Duration
	tb.sim.Schedule(150*time.Millisecond, func() { // mid-interval, radio asleep
		if tb.macs[0].Awake() {
			t.Error("sender should be asleep before the send")
		}
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) {
			acked = ok
			ackedAt = tb.sim.Now()
		})
	})
	tb.sim.Run(time.Second)
	if !acked {
		t.Fatal("PSM node failed to transmit to an AM neighbor")
	}
	if ackedAt > 200*time.Millisecond {
		t.Fatalf("send completed at %v; PSM senders must not wait for a window", ackedAt)
	}
}

func TestPSMReturnsToSleepAfterSend(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[0].SetPowerMode(PSM)
	tb.sim.Schedule(150*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, nil)
	})
	tb.sim.Schedule(250*time.Millisecond, func() {
		if tb.macs[0].Awake() {
			t.Error("sender should sleep again after finishing the exchange")
		}
	})
	tb.sim.Run(time.Second)
}

func TestATIMWindowExhaustionFailsJob(t *testing.T) {
	// Two PSM nodes out of range: the sender's ATIMs are never answered;
	// after maxWindowTries windows the job must fail.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 2000, Y: 0}})
	tb.macs[2].SetPowerMode(PSM)
	var result *bool
	tb.sim.Schedule(50*time.Millisecond, func() {
		tb.macs[0].SendUnicast(2, dataPkt(64), 0, func(ok bool) { result = &ok })
	})
	tb.sim.Run(5 * time.Second)
	if result == nil {
		t.Fatal("job never completed")
	}
	if *result {
		t.Fatal("unreachable PSM destination reported success")
	}
	if st := tb.macs[0].Stats(); st.ATIMSent == 0 || st.UnicastFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPSMToPSMDataExchange(t *testing.T) {
	// Both endpoints power saving: announcement in the window, data after.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 120, Y: 0}})
	tb.macs[0].SetPowerMode(PSM)
	tb.macs[1].SetPowerMode(PSM)
	var acked bool
	tb.sim.Schedule(100*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(256), 0, func(ok bool) { acked = ok })
	})
	tb.sim.Run(2 * time.Second)
	if !acked || len(tb.recvd[1]) != 1 {
		t.Fatalf("PSM-to-PSM exchange failed: acked=%v recvd=%d", acked, len(tb.recvd[1]))
	}
}

func TestManyUnicastsOneInterval(t *testing.T) {
	// A burst to a PSM destination: one announcement per interval covers
	// all queued packets for that destination.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[1].SetPowerMode(PSM)
	got := 0
	tb.sim.Schedule(50*time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) {
				if ok {
					got++
				}
			})
		}
	})
	tb.sim.Run(3 * time.Second)
	if got != 5 {
		t.Fatalf("delivered %d/5 packets", got)
	}
	st := tb.macs[0].Stats()
	if st.ATIMSent > 3 {
		t.Fatalf("ATIMSent = %d; one announcement should cover a queued burst", st.ATIMSent)
	}
}

func TestNAVDefersBystander(t *testing.T) {
	// c overhears a's RTS to b and must defer its own transmission until
	// the exchange completes (virtual carrier sense).
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 50}, {X: 50, Y: 150}}
	tb := newTestbed(t, 2, Config{}, pts)
	var order []int
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(1024), 0, func(bool) { order = append(order, 0) })
	})
	// c transmits shortly after a's exchange begins.
	tb.sim.Schedule(11*time.Millisecond, func() {
		tb.macs[2].SendUnicast(3, dataPkt(64), 0, func(bool) { order = append(order, 2) })
	})
	tb.sim.Run(time.Second)
	if len(order) != 2 {
		t.Fatalf("completed %d exchanges, want 2", len(order))
	}
	// Both must succeed; exact order is determined by CSMA, but the big
	// frame started first and must not be corrupted by c.
	if len(tb.recvd[1]) != 1 || len(tb.recvd[3]) != 1 {
		t.Fatalf("deliveries: %d/%d", len(tb.recvd[1]), len(tb.recvd[3]))
	}
}

func TestRetransmissionNotDeliveredTwice(t *testing.T) {
	// Force an ACK loss: a hidden node jams the ACK. The retransmitted
	// data frame must be filtered by the duplicate check, so the receiver
	// delivers exactly once even though the sender retried.
	// Topology: sender a at 0, receiver b at 200, jammer c at 400 (hidden
	// from a, audible at b).
	tb := newTestbed(t, 5, Config{}, []geom.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0},
	})
	jam := func() {
		// c streams broadcasts, colliding with b's control responses.
		tb.macs[2].SendBroadcast(dataPkt(1024), nil)
	}
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(512), 0, nil)
	})
	for i := 0; i < 40; i++ {
		tb.sim.Schedule(time.Duration(i)*2*time.Millisecond, jam)
	}
	tb.sim.Run(2 * time.Second)
	fromSender := 0
	for _, f := range tb.from[1] {
		if f == 0 {
			fromSender++
		}
	}
	if fromSender > 1 {
		t.Fatalf("receiver delivered %d copies of one packet", fromSender)
	}
	if st := tb.macs[0].Stats(); st.Retries == 0 {
		t.Skip("no retransmission occurred under this seed; duplicate path not exercised")
	}
}

func TestEnergyMonotoneOverTime(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[1].SetPowerMode(PSM)
	var last float64
	var check func()
	check = func() {
		total := tb.macs[1].Energy().Total()
		if total < last {
			t.Errorf("energy decreased: %v -> %v", last, total)
		}
		last = total
		tb.sim.Schedule(100*time.Millisecond, check)
	}
	tb.sim.Schedule(0, check)
	tb.sim.Schedule(500*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, nil)
	})
	tb.sim.Run(3 * time.Second)
}

func TestAMNodesIgnoreWindows(t *testing.T) {
	// Two AM nodes exchange data during the ATIM window without delay.
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	var doneAt time.Duration
	tb.sim.Schedule(301*time.Millisecond, func() { // just inside a window
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) {
			if ok {
				doneAt = tb.sim.Now()
			}
		})
	})
	tb.sim.Run(time.Second)
	if doneAt == 0 {
		t.Fatal("exchange failed")
	}
	if doneAt > 310*time.Millisecond {
		t.Fatalf("AM exchange at %v; should not wait for the window to close", doneAt)
	}
}

func TestPerfectSleepCardInMAC(t *testing.T) {
	// Using a perfect-sleep card prices AM idle time at sleep power while
	// behaviour (delivery) is unchanged.
	cfgPS := Config{Card: radio.Cabletron.PerfectSleep()}
	tb := newTestbed(t, 1, cfgPS, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	var acked bool
	tb.sim.Schedule(10*time.Millisecond, func() {
		tb.macs[0].SendUnicast(1, dataPkt(128), 0, func(ok bool) { acked = ok })
	})
	tb.sim.Run(10 * time.Second)
	if !acked {
		t.Fatal("perfect-sleep card must not change MAC behaviour")
	}
	e := tb.macs[1].Energy()
	if e.Idle > 10*radio.Cabletron.Sleep*1.5 {
		t.Fatalf("idle energy %v J; perfect sleep should price it at sleep power", e.Idle)
	}
}

// TestRequeueParksAtHeadInPlace pins requeue's contract: the current job
// goes back to the head of the queue, ahead of everything waiting, and the
// queue's backing array is reused when it has room.
func TestRequeueParksAtHeadInPlace(t *testing.T) {
	tb := newTestbed(t, 1, Config{}, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	tb.macs[1].SetPowerMode(PSM)
	m := tb.macs[0]
	tb.sim.Schedule(100*time.Millisecond, func() {
		// Outside the ATIM window a PSM destination cannot be announced
		// to, so none of these jobs is eligible and kick leaves them be.
		a, b, c := &job{dst: 1, pkt: dataPkt(1)}, &job{dst: 1, pkt: dataPkt(2)}, &job{dst: 1, pkt: dataPkt(3)}
		m.queue = append(make([]*job, 0, 8), a, b)
		backing := &m.queue[:1][0]
		m.current = c
		m.requeue()
		if m.current != nil || len(m.queue) != 3 || m.queue[0] != c || m.queue[1] != a || m.queue[2] != b {
			t.Errorf("queue after requeue = %v (current %v), want [c a b]", m.queue, m.current)
		}
		if &m.queue[0] != backing {
			t.Error("requeue reallocated a queue that had room")
		}
		m.queue = nil
	})
	tb.sim.Run(200 * time.Millisecond)
}
