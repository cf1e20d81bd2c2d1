package network

import (
	"context"
	"reflect"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
	"eend/internal/routing"
	"eend/internal/traffic"
)

// chainScenario builds n nodes in a line, spaced d meters apart, with one
// flow from node 0 to node n-1.
func chainScenario(n int, d float64, card radio.Card, st Stack, dur time.Duration) Scenario {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * d, Y: 0}
	}
	return Scenario{
		Seed:      7,
		Positions: pts,
		Card:      card,
		Stack:     st,
		Flows: []traffic.Flow{{
			ID: 1, Src: 0, Dst: n - 1, Rate: 2048, PacketBytes: 128,
			StartMin: 5 * time.Second, StartMax: 6 * time.Second,
		}},
		Duration: dur,
	}
}

func TestDSRActiveChainDelivery(t *testing.T) {
	// 5 nodes, 200 m apart (Cabletron range 250 m): 4-hop chain.
	sc := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoDSR, PM: PMAlwaysActive}, 60*time.Second)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if res.DeliveryRatio < 0.95 {
		t.Fatalf("delivery ratio = %.2f, want ~1 (sent=%d delivered=%d)",
			res.DeliveryRatio, res.Sent, res.Delivered)
	}
	if res.Relays != 3 {
		t.Errorf("relays = %d, want the 3 middle nodes", res.Relays)
	}
	if res.Routing.RREQSent == 0 || res.Routing.RREPSent == 0 {
		t.Error("route discovery should have happened")
	}
}

func TestDSRODPMChainDeliversAndSleeps(t *testing.T) {
	sc := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoDSR, PM: PMODPM}, 90*time.Second)
	// Add a bystander far off the route but in radio range of node 0.
	sc.Positions = append(sc.Positions, geom.Point{X: 0, Y: 200})
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.90 {
		t.Fatalf("delivery ratio with ODPM = %.2f (sent=%d delivered=%d)",
			res.DeliveryRatio, res.Sent, res.Delivered)
	}
	if res.Energy.Sleep <= 0 {
		t.Error("some nodes should have slept")
	}
}

func TestODPMBeatsAlwaysActiveOnGoodput(t *testing.T) {
	// The paper's central premise: with idle power dominating, power
	// management yields far better energy goodput at light load.
	base := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoDSR, PM: PMAlwaysActive}, 120*time.Second)
	active, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Stack = Stack{Routing: ProtoDSR, PM: PMODPM}
	odpm, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if odpm.DeliveryRatio < 0.9 || active.DeliveryRatio < 0.9 {
		t.Fatalf("both stacks must deliver: odpm=%.2f active=%.2f",
			odpm.DeliveryRatio, active.DeliveryRatio)
	}
	if odpm.EnergyGoodput <= active.EnergyGoodput {
		t.Fatalf("ODPM goodput %.0f must beat always-active %.0f",
			odpm.EnergyGoodput, active.EnergyGoodput)
	}
}

func TestMTPRPrefersShortHops(t *testing.T) {
	// Hypothetical Cabletron: alpha2 large enough that two 100 m hops beat
	// one 200 m hop. MTPR should relay through the middle node; plain DSR
	// should go direct.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	mk := func(st Stack) Scenario {
		return Scenario{
			Seed: 3, Positions: pts, Card: radio.HypotheticalCabletron, Stack: st,
			Flows: []traffic.Flow{{
				ID: 1, Src: 0, Dst: 2, Rate: 2048, PacketBytes: 128,
				StartMin: 2 * time.Second, StartMax: 3 * time.Second,
			}},
			Duration: 30 * time.Second,
		}
	}
	mtpr, err := Run(mk(Stack{Routing: ProtoMTPR, PM: PMAlwaysActive}))
	if err != nil {
		t.Fatal(err)
	}
	dsr, err := Run(mk(Stack{Routing: ProtoDSR, PM: PMAlwaysActive}))
	if err != nil {
		t.Fatal(err)
	}
	if mtpr.DeliveryRatio < 0.95 || dsr.DeliveryRatio < 0.95 {
		t.Fatalf("delivery: mtpr=%.2f dsr=%.2f", mtpr.DeliveryRatio, dsr.DeliveryRatio)
	}
	if mtpr.Relays != 1 {
		t.Errorf("MTPR relays = %d, want 1 (route through middle)", mtpr.Relays)
	}
	if dsr.Relays != 0 {
		t.Errorf("DSR relays = %d, want 0 (direct route)", dsr.Relays)
	}
	// And the MTPR data transmit energy should be lower per packet.
	if mtpr.Energy.TxData >= dsr.Energy.TxData {
		t.Errorf("MTPR TxData %.3f J should undercut DSR %.3f J",
			mtpr.Energy.TxData, dsr.Energy.TxData)
	}
}

func TestPowerControlReducesTxEnergy(t *testing.T) {
	// Same stack, PC on vs off: data frames at learned minimum power.
	mk := func(pc bool) Scenario {
		return chainScenario(4, 150, radio.Cabletron,
			Stack{Routing: ProtoDSR, PM: PMAlwaysActive, PowerControl: pc}, 60*time.Second)
	}
	pc, err := Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	nopc, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if pc.DeliveryRatio < 0.95 || nopc.DeliveryRatio < 0.95 {
		t.Fatalf("delivery: pc=%.2f nopc=%.2f", pc.DeliveryRatio, nopc.DeliveryRatio)
	}
	if pc.Energy.TxData >= nopc.Energy.TxData {
		t.Fatalf("PC TxData %.3f J should undercut no-PC %.3f J",
			pc.Energy.TxData, nopc.Energy.TxData)
	}
}

func TestDSDVChainDelivery(t *testing.T) {
	sc := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoDSDV, PM: PMAlwaysActive}, 120*time.Second)
	// DSDV needs to converge before traffic starts: periodic dumps every
	// 15 s, so start the flow late.
	sc.Flows[0].StartMin = 50 * time.Second
	sc.Flows[0].StartMax = 51 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.9 {
		t.Fatalf("DSDV delivery = %.2f (sent=%d delivered=%d)",
			res.DeliveryRatio, res.Sent, res.Delivered)
	}
	if res.Routing.UpdatesSent == 0 {
		t.Fatal("DSDV sent no route updates")
	}
	// The routing table at node 0 should know every destination.
	nw, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.ExecuteContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, ok := nw.Protocol(0).(*routing.DSDV)
	if !ok {
		t.Fatal("protocol is not DSDV")
	}
	tbl := d.Table() // rows in ascending destination order, node 0's own first
	if len(tbl) != 5 {
		t.Fatalf("node 0 has %d routes, want one per node: %+v", len(tbl), tbl)
	}
	for dst := 1; dst < 5; dst++ {
		if e := tbl[dst]; e.Dst != dst || e.Next != 1 {
			t.Errorf("row %d is a route to %d via %d, want to %d via 1", dst, e.Dst, e.Next, dst)
		}
	}
}

func TestDSDVHTriggersOnPMChanges(t *testing.T) {
	sc := chainScenario(4, 150, radio.Cabletron, Stack{Routing: ProtoDSDVH, PM: PMODPM}, 120*time.Second)
	sc.Flows[0].StartMin = 40 * time.Second
	sc.Flows[0].StartMax = 41 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Periodic-only would be ~ (120/15)*4 = 32 updates; PM transitions and
	// table changes must add triggered ones.
	if res.Routing.UpdatesSent <= 32 {
		t.Errorf("DSDVH updates = %d, want triggered updates beyond the periodic %d",
			res.Routing.UpdatesSent, 32)
	}
}

func TestTITANDeliversWithODPM(t *testing.T) {
	sc := chainScenario(5, 200, radio.Cabletron, Stack{Routing: ProtoTITAN, PM: PMODPM, PowerControl: true}, 90*time.Second)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.85 {
		t.Fatalf("TITAN-PC delivery = %.2f (sent=%d delivered=%d)",
			res.DeliveryRatio, res.Sent, res.Delivered)
	}
}

func TestDeterministicResults(t *testing.T) {
	sc := Scenario{
		Seed:  99,
		Field: geom.Field{Width: 400, Height: 400},
		Nodes: 20,
		Card:  radio.Cabletron,
		Stack: Stack{Routing: ProtoDSR, PM: PMODPM},
		Flows: []traffic.Flow{
			{ID: 1, Src: 0, Dst: 19, Rate: 2048, PacketBytes: 128, StartMin: 5 * time.Second, StartMax: 10 * time.Second},
			{ID: 2, Src: 3, Dst: 15, Rate: 2048, PacketBytes: 128, StartMin: 5 * time.Second, StartMax: 10 * time.Second},
		},
		Duration: 60 * time.Second,
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different results:\n%+v\n%+v", a, b)
	}
	sc.Seed = 100
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == c.Events && a.Energy == c.Energy {
		t.Fatal("different seeds gave identical runs")
	}
}

func TestPerfectSleepAccounting(t *testing.T) {
	st := Stack{Routing: ProtoDSR, PM: PMAlwaysActive, PerfectSleep: true}
	sc := chainScenario(3, 150, radio.HypotheticalCabletron, st, 60*time.Second)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.95 {
		t.Fatalf("perfect-sleep stack must still deliver: %.2f", res.DeliveryRatio)
	}
	// Idle priced at sleep power: passive energy becomes negligible
	// relative to an always-active run.
	plain, err := Run(chainScenario(3, 150, radio.HypotheticalCabletron,
		Stack{Routing: ProtoDSR, PM: PMAlwaysActive}, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Passive() >= plain.Energy.Passive()*0.2 {
		t.Fatalf("perfect sleep passive %.2f J vs plain %.2f J",
			res.Energy.Passive(), plain.Energy.Passive())
	}
}

func TestStackNames(t *testing.T) {
	cases := []struct {
		st   Stack
		want string
	}{
		{Stack{Routing: ProtoDSR, PM: PMODPM}, "DSR-ODPM"},
		{Stack{Routing: ProtoDSR, PM: PMAlwaysActive}, "DSR-Active"},
		{Stack{Routing: ProtoTITAN, PM: PMODPM, PowerControl: true}, "TITAN-ODPM-PC"},
		{Stack{Routing: ProtoDSRHNoRate, PM: PMODPM}, "DSRH(norate)-ODPM"},
		{Stack{Label: "custom", Routing: ProtoDSR}, "custom"},
	}
	for _, c := range cases {
		if got := c.st.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	good := chainScenario(3, 100, radio.Cabletron, Stack{Routing: ProtoDSR, PM: PMAlwaysActive}, time.Second)

	bad := good
	bad.Duration = 0
	if _, err := Build(bad); err == nil {
		t.Error("zero duration should fail")
	}

	bad = good
	bad.Positions = nil
	bad.Nodes = 0
	if _, err := Build(bad); err == nil {
		t.Error("no nodes should fail")
	}

	bad = good
	bad.Flows = []traffic.Flow{{ID: 1, Src: 0, Dst: 99, Rate: 1000, PacketBytes: 128}}
	if _, err := Build(bad); err == nil {
		t.Error("out-of-range flow endpoint should fail")
	}

	bad = good
	bad.Stack.Routing = ProtocolKind(42)
	if _, err := Build(bad); err == nil {
		t.Error("unknown protocol should fail")
	}

	bad = good
	bad.Card = radio.Card{Name: "broken", Idle: -1}
	if _, err := Build(bad); err == nil {
		t.Error("invalid card should fail")
	}
}

func TestAllStacksSmoke(t *testing.T) {
	// Every protocol x PM combination must run and deliver on an easy
	// 3-node chain.
	protos := []ProtocolKind{ProtoDSR, ProtoMTPR, ProtoMTPRPlus, ProtoDSRHRate,
		ProtoDSRHNoRate, ProtoDSDV, ProtoDSDVH, ProtoTITAN}
	for _, p := range protos {
		for _, pm := range []PMKind{PMAlwaysActive, PMODPM} {
			sc := chainScenario(3, 150, radio.Cabletron, Stack{Routing: p, PM: pm}, 90*time.Second)
			sc.Flows[0].StartMin = 40 * time.Second // let proactive protocols converge
			sc.Flows[0].StartMax = 41 * time.Second
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%v/%v: %v", p, pm, err)
			}
			if res.DeliveryRatio < 0.8 {
				t.Errorf("stack %s delivery = %.2f (sent=%d delivered=%d)",
					res.Stack, res.DeliveryRatio, res.Sent, res.Delivered)
			}
		}
	}
}
