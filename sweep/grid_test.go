package sweep

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"eend"
)

func TestParseGridHappyPath(t *testing.T) {
	g, err := ParseGrid("nodes=10,20 seed=1..3 stack=titan-pc/odpm topology=uniform,cluster rate=2")
	if err != nil {
		t.Fatal(err)
	}
	axes := g.Axes()
	if len(axes) != 5 {
		t.Fatalf("axes = %d, want 5", len(axes))
	}
	if axes[0].Name != "nodes" || axes[1].Name != "seed" {
		t.Fatalf("axis order not preserved: %v", axes)
	}
	if got := axes[1].Values; len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Fatalf("span 1..3 expanded to %v", got)
	}
	if g.Size() != 2*3*1*2*1 {
		t.Fatalf("size = %d, want 12", g.Size())
	}
}

func TestParseGridErrors(t *testing.T) {
	cases := map[string]string{
		"empty spec":      "",
		"not name=values": "nodes",
		"empty axis":      "nodes=",
		"empty value":     "nodes=10,,20",
		"duplicate axis":  "nodes=10 nodes=20",
		"unknown axis":    "antennas=3",
		"bad span":        "seed=1..x",
		"reversed span":   "seed=9..3",
		"huge span":       "seed=1..99999",
		// Widths that overflow int: b-a wraps negative and used to pass
		// the cap, then append until the process died.
		"whole-int span": "seed=-9223372036854775808..9223372036854775807",
		"wrapping span":  "seed=-2..9223372036854775807",
		// Under the span cap each, over the axis cap together; and a repeated
		// axis is refused before its values are expanded again.
		"huge list of spans": "seed=1..6000,1..6000",
		"repeated axis":      "seed=1..9999 seed=1..9999 seed=1..9999",
	}
	for name, spec := range cases {
		if _, err := parseWithin(t, spec); err == nil {
			t.Errorf("%s: ParseGrid(%q) accepted", name, spec)
		}
	}
}

// parseWithin is ParseGrid under a deadline: the specs it guards against
// used to expand until the process died.
func parseWithin(t *testing.T, spec string) (*Grid, error) {
	t.Helper()
	type parsed struct {
		g   *Grid
		err error
	}
	done := make(chan parsed, 1)
	go func() {
		g, err := ParseGrid(spec)
		done <- parsed{g, err}
	}()
	select {
	case p := <-done:
		return p.g, p.err
	case <-time.After(5 * time.Second):
		t.Fatalf("ParseGrid(%q) still running after 5s", spec)
		return nil, nil
	}
}

// FuzzParseGrid: the grid spec arrives from outside (POST /v1/sweeps,
// eendsweep -grid). Whatever the bytes, ParseGrid returns promptly without
// panicking, and a grid it accepts expands to exactly Size() points.
func FuzzParseGrid(f *testing.F) {
	f.Add("nodes=10,20 seed=1..3 stack=titan-pc/odpm topology=uniform,cluster rate=2")
	f.Add("seed=-9223372036854775808..9223372036854775807")
	f.Add("seed=9223372036854775805..9223372036854775807")
	f.Add("seed=1..4096 nodes=1..4096 flows=1..4096 rate=1..4096 packet=1..4096 replicates=1..4096")
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := parseWithin(t, spec)
		if err != nil || g.Size() > 10000 {
			return
		}
		pts, err := g.Points()
		if err != nil || len(pts) != g.Size() {
			t.Fatalf("ParseGrid(%q): Size() = %d but Points() = %d points, %v", spec, g.Size(), len(pts), err)
		}
	})
}

// TestSpanAtIntLimit: a short span ending at the largest int expands to its
// values instead of looping past the wrap.
func TestSpanAtIntLimit(t *testing.T) {
	g, err := ParseGrid("seed=9223372036854775805..9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"9223372036854775805", "9223372036854775806", "9223372036854775807"}
	if got := g.Axes()[0].Values; !slices.Equal(got, want) {
		t.Fatalf("span expanded to %v, want %v", got, want)
	}
}

// TestSizeSaturates: six axes of 4096 values multiply to 2^72, which wraps
// to 0 in an int and used to slip under any point limit.
func TestSizeSaturates(t *testing.T) {
	g, err := ParseGrid("seed=1..4096 nodes=1..4096 flows=1..4096 rate=1..4096 packet=1..4096 replicates=1..4096")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != math.MaxInt {
		t.Fatalf("Size() = %d, want saturation at math.MaxInt", g.Size())
	}
	if _, err := g.Points(); err == nil {
		t.Fatal("Points expanded a grid whose size overflows")
	}
}

func TestGridBuilderErrors(t *testing.T) {
	cases := map[string]*Grid{
		"empty name":     NewGrid().Axis("", 1),
		"no values":      NewGrid().Axis("nodes"),
		"duplicate axis": NewGrid().Axis("nodes", 10).Axis("nodes", 20),
		"unknown axis":   NewGrid().Axis("antennas", 3),
		"empty grid":     NewGrid(),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := g.Points(); err == nil {
			t.Errorf("%s: Points expanded an invalid grid", name)
		}
	}
}

func TestPointsExpansionOrder(t *testing.T) {
	g := NewGrid().Axis("nodes", 10, 20).Axis("seed", 1, 2)
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{
		{"nodes": "10", "seed": "1"},
		{"nodes": "10", "seed": "2"},
		{"nodes": "20", "seed": "1"},
		{"nodes": "20", "seed": "2"},
	}
	if len(pts) != len(want) {
		t.Fatalf("points = %d, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		for k, v := range want[i] {
			if p.Params[k] != v {
				t.Fatalf("point %d = %v, want %v (first axis varies slowest)", i, p.Params, want[i])
			}
		}
	}
}

func TestPointScenarioTranslation(t *testing.T) {
	g := NewGrid().
		Axis("nodes", 15).
		Axis("seed", 7).
		Axis("stack", "dsr/active").
		Axis("topology", "corridor").
		Axis("workload", "bursty").
		Axis("flows", 2).
		Axis("rate", 4).
		Axis("dur", "60s").
		Axis("field", "400x200").
		Axis("card", "mica2")
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	sc, err := pts[0].Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.NodeCount() != 15 || sc.Seed() != 7 {
		t.Errorf("nodes/seed = %d/%d, want 15/7", sc.NodeCount(), sc.Seed())
	}
	if sc.StackName() != "DSR-Active" {
		t.Errorf("stack = %q, want DSR-Active", sc.StackName())
	}
	if sc.Duration() != 60*time.Second {
		t.Errorf("duration = %v, want 60s", sc.Duration())
	}
	// bursty x 2 flows x default 3 bursts
	if flows := sc.Flows(); len(flows) != 6 {
		t.Errorf("flows = %d, want 6 bursty segments", len(flows))
	}
}

func TestPointScenarioBadValue(t *testing.T) {
	for _, spec := range []string{
		"nodes=ten", "seed=-1", "rate=fast", "dur=300", "field=AxB",
		"stack=titan", "stack=ospf/odpm", "stack=titan/foo",
		"topology=torus", "workload=poisson", "card=wifi7",
		"flows=0", "packet=-8", "battery=x", "bandwidth=x",
	} {
		g, err := ParseGrid(spec)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		pts, err := g.Points()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pts[0].Scenario(); err == nil {
			t.Errorf("point from %q built a scenario", spec)
		}
	}
}

// TestAxisErrorTexts pins, for every axis, the error a value it cannot parse
// reads as: eendsweep and POST /v1/sweeps hand these texts to the user.
func TestAxisErrorTexts(t *testing.T) {
	want := map[string]string{
		"bandwidth":  `bad bandwidth "x" (bit/s)`,
		"battery":    `bad battery "x" (J)`,
		"card":       `eend: unknown card "x" (want one of [aironet cabletron hypothetical leach2 leach4 mica2])`,
		"dur":        `bad duration "x"`,
		"field":      `bad field "x"`,
		"flows":      `bad flow count "x"`,
		"heuristic":  `bad heuristic "x" (want one of [comm-first joint idle-first greedy anneal restart])`,
		"nodes":      `bad node count "x"`,
		"packet":     `bad packet size "x"`,
		"rate":       `bad rate "x" (Kbit/s)`,
		"replicates": `bad replicate count "x"`,
		"seed":       `bad seed "x"`,
		"stack":      `sweep: stack "x" is not routing/pm`,
		"topology":   `eend: unknown topology "x" (want one of [uniform grid cluster corridor])`,
		"workload":   `eend: unknown workload "x" (want one of [cbr bursty convergecast])`,
	}
	if len(want) != len(AxisNames()) {
		t.Fatalf("%d texts pinned for axes %v", len(want), AxisNames())
	}
	for _, name := range AxisNames() {
		pts, err := NewGrid().Axis(name, "x").Points()
		if err != nil {
			t.Fatal(err)
		}
		_, err = pts[0].Scenario()
		if got, w := fmt.Sprint(err), "sweep: point 0: axis "+name+": "+want[name]; got != w {
			t.Errorf("%s=x: error %q, want %q", name, got, w)
		}
	}
}

func TestParseStackModifiers(t *testing.T) {
	cases := map[string]string{
		"titan-pc/odpm":      "TITAN-ODPM-PC",
		"dsr/active":         "DSR-Active",
		"dsrh-rate/odpm":     "DSRH(rate)-ODPM",
		"dsdvh-pc/odpm":      "DSDVH-ODPM-PC",
		"titan-span/odpm":    "TITAN-ODPM", // span doesn't change the label
		"dsr-perfect/active": "DSR-Active", // neither does perfect-sleep
	}
	for spec, want := range cases {
		opts, err := ParseStack(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		sc, err := eend.NewScenario(eend.WithStack(opts...))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if sc.StackName() != want {
			t.Errorf("%s: stack name = %q, want %q", spec, sc.StackName(), want)
		}
	}
}

func TestAxisNamesCoverRegistry(t *testing.T) {
	names := AxisNames()
	if len(names) != len(axisRegistry) {
		t.Fatalf("AxisNames = %d entries, registry has %d", len(names), len(axisRegistry))
	}
	if !strings.Contains(strings.Join(names, " "), "topology") {
		t.Fatalf("AxisNames = %v, missing topology", names)
	}
}
