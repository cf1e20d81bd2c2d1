package eend_test

import (
	"context"
	"math"
	"testing"
	"time"

	"eend"
)

func TestNewScenarioDefaults(t *testing.T) {
	sc, err := eend.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.NodeCount() != 50 {
		t.Errorf("default nodes = %d, want 50", sc.NodeCount())
	}
	if sc.StackName() != "TITAN-ODPM-PC" {
		t.Errorf("default stack = %q, want TITAN-ODPM-PC", sc.StackName())
	}
	if sc.Duration() != 300*time.Second {
		t.Errorf("default duration = %v, want 300s", sc.Duration())
	}
	if sc.Seed() != 1 {
		t.Errorf("default seed = %d, want 1", sc.Seed())
	}
}

func TestWithStackDefaultsPMToODPM(t *testing.T) {
	// Matches the HTTP surface: an omitted PM policy means ODPM, not
	// always-active.
	sc, err := eend.NewScenario(eend.WithStack(eend.TITAN, eend.PowerControl()))
	if err != nil {
		t.Fatal(err)
	}
	if sc.StackName() != "TITAN-ODPM-PC" {
		t.Fatalf("stack = %q, want TITAN-ODPM-PC", sc.StackName())
	}
}

func TestNewScenarioOptionOrderIndependence(t *testing.T) {
	// Random flows must be drawn from the final seed and node count,
	// whatever position the options were given in.
	a, err := eend.NewScenario(
		eend.WithRandomFlows(4, 2048, 128),
		eend.WithSeed(9),
		eend.WithNodes(20),
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eend.NewScenario(
		eend.WithNodes(20),
		eend.WithSeed(9),
		eend.WithRandomFlows(4, 2048, 128),
	)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Flows(), b.Flows()
	if len(fa) != 4 || len(fb) != 4 {
		t.Fatalf("flow counts = %d/%d, want 4", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("flow %d differs by option order: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestNewScenarioRejectsBadOptions(t *testing.T) {
	cases := map[string][]eend.Option{
		"negative field":         {eend.WithField(-1, 100)},
		"zero nodes":             {eend.WithNodes(0)},
		"zero grid":              {eend.WithGrid(0, 3)},
		"grid product overflows": {eend.WithGrid(3, 6148914691236517206)},
		"empty positions":        {eend.WithPositions()},
		"no routing":             {eend.WithStack(eend.ODPM)},
		"zero duration":          {eend.WithDuration(0)},
		"zero rate":              {eend.WithRandomFlows(2, 0, 128)},
		"zero packets":           {eend.WithRandomFlows(2, 2048, 0)},
		"tiny flow limit":        {eend.WithRandomFlowsAmong(2, 1, 2048, 128)},
		"limit over nodes":       {eend.WithNodes(40), eend.WithRandomFlowsAmong(8, 60, 2048, 128)},
		"zero battery":           {eend.WithBattery(0)},
		"zero bandwidth":         {eend.WithBandwidth(0)},
		"flow out of range":      {eend.WithNodes(5), eend.WithFlows(eend.Flow{ID: 1, Src: 0, Dst: 9, Rate: 1024, PacketBytes: 128})},
		"flow negative src":      {eend.WithFlows(eend.Flow{ID: 1, Src: -1, Dst: 2, Rate: 1024, PacketBytes: 128})},
		"flow src == dst":        {eend.WithFlows(eend.Flow{ID: 1, Src: 2, Dst: 2, Rate: 1024, PacketBytes: 128})},
		"one-node placement":     {eend.WithPositions(eend.Point{X: 1, Y: 1}), eend.WithRandomFlows(1, 1024, 128)},
		"negative nodes":         {eend.WithNodes(-3)},
		"zero-area field":        {eend.WithField(0, 0)},
		"zero topology":          {eend.WithTopology(eend.Topology{})},
		"topology+positions":     {eend.WithTopology(eend.UniformTopology()), eend.WithPositions(eend.Point{X: 1, Y: 1}, eend.Point{X: 2, Y: 2})},
		"topology+grid":          {eend.WithTopology(eend.UniformTopology()), eend.WithGrid(3, 3)},
		"wild grid jitter":       {eend.WithTopology(eend.GridTopology(0.9))},
		"zero-kind workload":     {eend.WithWorkload(eend.Workload{Flows: 2, RateBps: 1024, PacketBytes: 128})},
		"zero-flow workload":     {eend.WithWorkload(eend.NewWorkload(eend.WorkloadCBR, 0, 1024, 128))},
		"negative-rate workload": {eend.WithWorkload(eend.NewWorkload(eend.WorkloadBursty, 2, -1, 128))},
		"burst longer than period": {eend.WithWorkload(eend.Workload{
			Kind: eend.WorkloadBursty, Flows: 1, RateBps: 1024, PacketBytes: 128,
			Bursts: 2, BurstLen: 30 * time.Second, Period: 10 * time.Second,
		})},
		"convergecast sink out of range": {eend.WithNodes(5), eend.WithWorkload(eend.Workload{
			Kind: eend.WorkloadConvergecast, Flows: 2, RateBps: 1024, PacketBytes: 128, Sink: 7,
		})},
		"convergecast too many sources": {eend.WithNodes(4), eend.WithWorkload(eend.NewWorkload(eend.WorkloadConvergecast, 9, 1024, 128))},
	}
	for name, opts := range cases {
		if _, err := eend.NewScenario(opts...); err == nil {
			t.Errorf("%s: NewScenario accepted a bad configuration", name)
		}
	}
}

// TestNewScenarioRejectsNonFiniteSizes: a size or rate is a positive finite
// number. NaN and +Inf pass a plain x <= 0 check and used to build a scenario
// that sent nothing and reported delivery ratio 1.
func TestNewScenarioRejectsNonFiniteSizes(t *testing.T) {
	options := map[string]func(float64) eend.Option{
		"field width":      func(x float64) eend.Option { return eend.WithField(x, 100) },
		"field height":     func(x float64) eend.Option { return eend.WithField(100, x) },
		"bandwidth":        eend.WithBandwidth,
		"battery":          eend.WithBattery,
		"random flow rate": func(x float64) eend.Option { return eend.WithRandomFlows(2, x, 128) },
		"rate among":       func(x float64) eend.Option { return eend.WithRandomFlowsAmong(2, 10, x, 128) },
		"workload rate":    func(x float64) eend.Option { return eend.WithWorkload(eend.NewWorkload(eend.WorkloadCBR, 2, x, 128)) },
	}
	for name, option := range options {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
			if _, err := eend.NewScenario(option(x)); err == nil {
				t.Errorf("%s %g: NewScenario accepted it", name, x)
			}
		}
	}
}

func TestScenarioRunDeterministic(t *testing.T) {
	build := func() *eend.Scenario {
		sc, err := eend.NewScenario(
			eend.WithSeed(11),
			eend.WithField(300, 300),
			eend.WithNodes(12),
			eend.WithStack(eend.TITAN, eend.ODPM, eend.PowerControl()),
			eend.WithRandomFlows(3, 2048, 128),
			eend.WithDuration(40*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	r1, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sent != r2.Sent || r1.Delivered != r2.Delivered || r1.Energy != r2.Energy {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestGridPlacementNodeCount(t *testing.T) {
	sc, err := eend.NewScenario(
		eend.WithGrid(4, 5),
		eend.WithField(300, 300),
		eend.WithRandomFlows(2, 1024, 128),
		eend.WithDuration(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NodeCount() != 20 {
		t.Fatalf("grid node count = %d, want 20", sc.NodeCount())
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 20 {
		t.Fatalf("per-node results = %d, want 20", len(res.PerNode))
	}
}

func TestParseHelpers(t *testing.T) {
	for _, name := range eend.RoutingNames() {
		k, err := eend.ParseRouting(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Errorf("routing %q round-trips to %q", name, k.String())
		}
	}
	for _, name := range eend.PMNames() {
		k, err := eend.ParsePM(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Errorf("pm %q round-trips to %q", name, k.String())
		}
	}
	for _, name := range eend.CardNames() {
		if _, err := eend.ParseCard(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eend.ParseRouting("ospf"); err == nil {
		t.Error("ParseRouting should reject unknown names")
	}
	if len(eend.Cards()) != 6 {
		t.Errorf("Cards() = %d entries, want 6", len(eend.Cards()))
	}
}
