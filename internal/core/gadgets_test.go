package core

import (
	"math"
	"testing"
	"testing/quick"
)

// The gadget tests verify that the Enetwork evaluator reproduces the
// paper's closed forms (Eqs. 6-9) exactly, for many k and parameter values.

func TestST1MatchesEq6(t *testing.T) {
	f := func(k8 uint8, a, zz uint8) bool {
		k := int(k8)%20 + 1
		alpha := 1 + float64(a%10)
		z := 0.5 + float64(zz%5)
		tidle, tdata := 7.0, 0.3
		g, demands := STGadget(k, alpha, z)
		got := g.Enetwork(demands, ST1Design(k), EvalConfig{TIdle: tidle, TData: tdata})
		want := EST1(k, tidle, tdata, alpha, z)
		return math.Abs(got-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestST2MatchesEq7(t *testing.T) {
	f := func(k8 uint8) bool {
		k := int(k8)%20 + 1
		alpha, z, tidle, tdata := 2.0, 1.0, 7.0, 0.3
		g, demands := STGadget(k, alpha, z)
		got := g.Enetwork(demands, ST2Design(k), EvalConfig{TIdle: tidle, TData: tdata})
		want := EST2(k, tidle, tdata, alpha, z)
		return math.Abs(got-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSTGapGrowsWithK(t *testing.T) {
	// Section 3: the communication costs deviate by (k+3)/4 even though
	// both trees use exactly one relay.
	alpha, z, tidle, tdata := 2.0, 1.0, 1.0, 1.0
	prev := 0.0
	for k := 1; k <= 30; k++ {
		commST1 := EST1(k, tidle, tdata, alpha, z) - tidle*z
		commST2 := EST2(k, tidle, tdata, alpha, z) - tidle*z
		ratio := commST1 / commST2
		want := float64(k+3) / 4
		if math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("k=%d: comm ratio = %v, want (k+3)/4 = %v", k, ratio, want)
		}
		if ratio < prev {
			t.Fatalf("ratio must grow with k")
		}
		prev = ratio
	}
}

func TestSTBothDesignsFeasible(t *testing.T) {
	for _, k := range []int{1, 2, 5, 17} {
		g, demands := STGadget(k, 2, 1)
		for name, d := range map[string]*Design{"ST1": ST1Design(k), "ST2": ST2Design(k)} {
			if !d.Feasible(demands) {
				t.Fatalf("k=%d: %s infeasible", k, name)
			}
			// Every route edge must exist in the gadget.
			g.Enetwork(demands, d, EvalConfig{TIdle: 1, TData: 1})
		}
	}
}

func TestSF1MatchesEq8(t *testing.T) {
	for k := 1; k <= 25; k++ {
		alpha, z, tidle, tdata := 3.0, 2.0, 5.0, 0.25
		g, demands := SFGadget(k, alpha, z)
		got := g.Enetwork(demands, SF1Design(k), EvalConfig{TIdle: tidle, TData: tdata})
		want := ESF1(k, tidle, tdata, alpha, z)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d: ESF1 = %v, want %v", k, got, want)
		}
	}
}

func TestSF2MatchesEq9(t *testing.T) {
	for k := 1; k <= 25; k++ {
		alpha, z, tidle, tdata := 3.0, 2.0, 5.0, 0.25
		g, demands := SFGadget(k, alpha, z)
		got := g.Enetwork(demands, SF2Design(k), EvalConfig{TIdle: tidle, TData: tdata})
		want := ESF2(k, tidle, tdata, alpha, z)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d: ESF2 = %v, want %v", k, got, want)
		}
	}
}

func TestSFIdleRatio(t *testing.T) {
	if got := SFIdleRatio(1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ratio(1) = %v, want 1", got)
	}
	if got := SFIdleRatio(10); math.Abs(got-30.0/21.0) > 1e-12 {
		t.Errorf("ratio(10) = %v", got)
	}
	// Approaches 1.5 from below.
	if r := SFIdleRatio(1000); r >= 1.5 || r < 1.49 {
		t.Errorf("ratio(1000) = %v, want just below 1.5", r)
	}
}

func TestMPCCanPickEitherTreeButIdleFirstPicksSF2(t *testing.T) {
	// On the SF gadget, the joint/idle-first approaches must share the
	// center relay (SF2 shape, 1 relay), while comm-first is indifferent
	// (both routes are 2 hops). This is the paper's argument for why relay
	// sharing matters.
	k := 6
	g, demands := SFGadget(k, 2, 1)
	idle, err := g.Solve(demands, IdleFirst)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := g.Solve(demands, Joint)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Design{"idle-first": idle, "joint": joint} {
		act := d.Active()
		relays := 0
		endpoints := make(map[int]bool)
		for _, dm := range demands {
			endpoints[dm.Src] = true
			endpoints[dm.Dst] = true
		}
		for _, v := range act {
			if !endpoints[v] {
				relays++
			}
		}
		if relays != 1 {
			t.Errorf("%s uses %d relays, want 1 (share the center)", name, relays)
		}
	}
}

func TestGadgetPanicsOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { STGadget(0, 1, 1) },
		func() { SFGadget(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for k=0")
				}
			}()
			f()
		}()
	}
}
