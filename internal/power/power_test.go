package power

import (
	"testing"
	"time"

	"eend/internal/mac"
	"eend/internal/sim"
)

// fakeNode records mode transitions.
type fakeNode struct {
	mode        mac.PowerMode
	transitions []mac.PowerMode
}

func (f *fakeNode) SetPowerMode(m mac.PowerMode) {
	f.mode = m
	f.transitions = append(f.transitions, m)
}
func (f *fakeNode) PowerMode() mac.PowerMode { return f.mode }

func TestAlwaysActive(t *testing.T) {
	n := &fakeNode{mode: mac.PSM}
	a := &AlwaysActive{Node: n}
	a.Start()
	if n.mode != mac.AM {
		t.Fatal("AlwaysActive must start in AM")
	}
	a.OnActivity(ActivityData)
	if len(n.transitions) != 1 {
		t.Fatal("AlwaysActive must not toggle modes")
	}
}

func TestODPMStartsInPSM(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{mode: mac.AM}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	if n.mode != mac.PSM {
		t.Fatal("ODPM must start in PSM")
	}
}

func TestODPMDataKeepAlive(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	s.Schedule(time.Second, func() { o.OnActivity(ActivityData) })
	s.Run(2 * time.Second)
	if n.mode != mac.AM {
		t.Fatal("node should be AM within the data keep-alive window")
	}
	s.Run(5900 * time.Millisecond) // 1 s + 5 s - epsilon
	if n.mode != mac.AM {
		t.Fatal("keep-alive expired too early")
	}
	s.Run(6100 * time.Millisecond)
	if n.mode != mac.PSM {
		t.Fatal("node should return to PSM after the 5 s data keep-alive")
	}
}

func TestODPMRouteKeepAliveLonger(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	s.Schedule(time.Second, func() { o.OnActivity(ActivityRoute) })
	s.Run(10 * time.Second) // 1 + 10 = 11 s deadline
	if n.mode != mac.AM {
		t.Fatal("node should still be AM inside the 10 s route keep-alive")
	}
	s.Run(11100 * time.Millisecond)
	if n.mode != mac.PSM {
		t.Fatal("node should sleep after the route keep-alive")
	}
}

func TestODPMActivityExtendsDeadline(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	// Data activity every 2 s keeps the node in AM continuously.
	for i := 1; i <= 5; i++ {
		at := time.Duration(i) * 2 * time.Second
		s.Schedule(at, func() { o.OnActivity(ActivityData) })
	}
	s.Run(14 * time.Second) // last activity at 10 s + 5 s hold = 15 s
	if n.mode != mac.AM {
		t.Fatal("continuous activity must keep the node awake")
	}
	s.Run(15100 * time.Millisecond)
	if n.mode != mac.PSM {
		t.Fatal("node should sleep 5 s after the last activity")
	}
	// Exactly one AM->PSM cycle: PSM(start), AM, PSM.
	want := []mac.PowerMode{mac.PSM, mac.AM, mac.PSM}
	if len(n.transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", n.transitions, want)
	}
	for i := range want {
		if n.transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", n.transitions, want)
		}
	}
}

func TestODPMShorterTimeoutDoesNotShrinkDeadline(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	s.Schedule(time.Second, func() { o.OnActivity(ActivityRoute) })  // until 11 s
	s.Schedule(2*time.Second, func() { o.OnActivity(ActivityData) }) // until 7 s only
	s.Run(10900 * time.Millisecond)
	if n.mode != mac.AM {
		t.Fatal("later shorter keep-alive must not shrink the deadline")
	}
	s.Run(11100 * time.Millisecond)
	if n.mode != mac.PSM {
		t.Fatal("node should sleep at the route deadline")
	}
}

func TestODPMCustomTimeouts(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{DataTimeout: 600 * time.Millisecond, RouteTimeout: 1200 * time.Millisecond})
	o.Start()
	s.Schedule(time.Second, func() { o.OnActivity(ActivityData) })
	s.Run(1500 * time.Millisecond)
	if n.mode != mac.AM {
		t.Fatal("should be AM inside 0.6 s keep-alive")
	}
	s.Run(1700 * time.Millisecond)
	if n.mode != mac.PSM {
		t.Fatal("0.6 s variant should sleep quickly")
	}
}

func TestODPMNotify(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	var seen []mac.PowerMode
	o.SetNotify(func(m mac.PowerMode) { seen = append(seen, m) })
	o.Start()
	s.Schedule(time.Second, func() { o.OnActivity(ActivityData) })
	s.Run(20 * time.Second)
	want := []mac.PowerMode{mac.PSM, mac.AM, mac.PSM}
	if len(seen) != len(want) {
		t.Fatalf("notify saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("notify saw %v, want %v", seen, want)
		}
	}
}

func TestODPMUnknownActivityIgnored(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	o.OnActivity(Activity(99))
	if n.mode != mac.PSM {
		t.Fatal("unknown activity must not wake the node")
	}
}

// TestODPMArmReschedulesPerDeadlineMove pins arm's timer count, which every
// golden fingerprint depends on through the kernel's sequence numbers: an
// activity that moves the deadline cancels the pending check and schedules a
// new one; an activity that leaves the deadline where it is (a shorter hold,
// or a second activity at the same instant) keeps the pending check.
func TestODPMArmReschedulesPerDeadlineMove(t *testing.T) {
	s := sim.New(1)
	n := &fakeNode{}
	o := NewODPM(s, n, ODPMConfig{})
	o.Start()
	s.Schedule(1*time.Second, func() { o.OnActivity(ActivityData) })  // deadline 6 s: timer 1
	s.Schedule(2*time.Second, func() { o.OnActivity(ActivityRoute) }) // deadline 12 s: timer 2 replaces it
	s.Schedule(3*time.Second, func() {
		o.OnActivity(ActivityData) // 8 s < 12 s: deadline and timer stay
		o.OnActivity(ActivityData)
	})
	s.Run(11900 * time.Millisecond)
	if got := s.Timers(sim.LayerPower); got != 2 { // this run's own tally, not a process-wide counter
		t.Fatalf("three overlapping activities scheduled %d expiry checks, want 2", got)
	}
	if n.mode != mac.AM || s.Pending() != 1 {
		t.Fatalf("at 11.9 s: mode %v with %d events pending, want AM with the one check at 12 s", n.mode, s.Pending())
	}
	s.Run(12100 * time.Millisecond)
	if n.mode != mac.PSM || s.Timers(sim.LayerPower) != 2 {
		t.Fatalf("at 12.1 s: mode %v after %d checks, want PSM after 2", n.mode, s.Timers(sim.LayerPower))
	}
}
