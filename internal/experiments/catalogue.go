package experiments

import (
	"fmt"
	"time"

	"eend/internal/geom"
	"eend/internal/network"
	"eend/internal/power"
	"eend/internal/radio"
	"eend/internal/routing"
	"eend/internal/traffic"
)

// study is one row of the catalogue: a campaign of seeded runs (sizing x
// lines x xs x seeds) and the plots drawn from it. A study without sizing
// is analytic: its plots fill themselves in and nothing is simulated.
type study struct {
	name     string // progress and error prefix
	ablation bool   // beyond the paper: listed by AblationIDs, not IDs
	// sizing yields one netParams per field the study covers (Fig. 10
	// covers two, and suffixes its series with the field size).
	sizing   []func(Scale) netParams
	lines    []line
	scenario func(p netParams, st network.Stack, x float64, seed uint64) network.Scenario
	routes   bool                     // keep each flow's stabilized route (grid study)
	note     func(p netParams) string // what "scale=<s>: " is followed by in every plot's notes
	plots    []plot
}

// plot is one figure drawn from a study's runs.
type plot struct {
	id, title, xlabel string
	notes             []string      // caveats and paper-vs-measured remarks
	analytic          func(*Figure) // fills an analytic study's figure
	// fields are the series each line contributes: every run is observed
	// into each, at the run's own x or, when xs is set, at each of xs.
	fields []field
	xs     []float64
}

// field turns one finished run into one y value.
type field struct {
	suffix string // appended to the line's label
	of     func(rn run, x float64) float64
}

// line is one protocol stack under evaluation; stack.Label is the label
// its series carry.
type line struct {
	stack network.Stack
	// pc prices the grid projection's data frames at the minimum power
	// the stack learned for each link instead of the card's maximum.
	pc bool
}

func lines(stacks ...network.Stack) []line {
	out := make([]line, len(stacks))
	for i, st := range stacks {
		out[i].stack = st
	}
	return out
}

// netParams sizes one family of runs at one scale.
type netParams struct {
	field geom.Field
	nodes int
	flows int
	dur   time.Duration
	seeds int
	xs    []float64 // offered rates in Kbit/s (node counts for Table 2)

	rows, cols int     // grid study: placement
	horizon    float64 // grid study: projection duration (s)
}

func smallNets(s Scale) netParams {
	if s == Full {
		return netParams{
			field: geom.Field{Width: 500, Height: 500},
			nodes: 50, flows: 10, dur: 900 * time.Second, seeds: 5,
			xs: []float64{2, 3, 4, 5, 6},
		}
	}
	return netParams{
		field: geom.Field{Width: 420, Height: 420},
		nodes: 25, flows: 4, dur: 90 * time.Second, seeds: 2,
		xs: []float64{2, 6},
	}
}

func largeNets(s Scale) netParams {
	if s == Full {
		return netParams{
			field: geom.Field{Width: 1300, Height: 1300},
			nodes: 200, flows: 20, dur: 600 * time.Second, seeds: 10,
			xs: []float64{2, 3, 4, 5, 6},
		}
	}
	return netParams{
		field: geom.Field{Width: 800, Height: 800},
		nodes: 60, flows: 8, dur: 90 * time.Second, seeds: 2,
		xs: []float64{2, 4},
	}
}

// densityNets is the large field with node counts on the x axis.
func densityNets(s Scale) netParams {
	p := largeNets(s)
	p.xs = []float64{300, 400}
	if s == Quick {
		p.xs = []float64{80, 110}
	}
	return p
}

// ablationNets is a mid-sized scenario family shared by the ablations.
func ablationNets(s Scale) netParams {
	if s == Full {
		return netParams{
			field: geom.Field{Width: 900, Height: 900},
			nodes: 100, flows: 12, dur: 300 * time.Second, seeds: 5,
			xs: []float64{2, 4, 6},
		}
	}
	return netParams{
		field: geom.Field{Width: 600, Height: 600},
		nodes: 40, flows: 6, dur: 90 * time.Second, seeds: 2,
		xs: []float64{2, 4},
	}
}

// gridNets sizes the grid study: routes stabilize over dur at 2 Kbit/s,
// one run per stack, and are then projected over horizon.
func gridNets(s Scale) netParams {
	p := netParams{
		field: geom.Field{Width: 300, Height: 300},
		rows:  5, cols: 5, dur: 60 * time.Second, horizon: 300,
		seeds: 1, xs: []float64{2},
	}
	if s == Full {
		p.rows, p.cols, p.dur, p.horizon = 7, 7, 120*time.Second, 900
	}
	return p
}

// kbit is the paper's packet-rate unit: 128 B packets are 1024 bits, so
// "2 Kbit/s" means exactly 2 packets per second.
const kbit = 1024.0

// fieldScenario builds one random-field run: p.flows CBR flows with
// distinct random endpoints, drawn from a stream decoupled from the
// scenario seed so that endpoint choice is stable per run index.
func fieldScenario(p netParams, st network.Stack, rateKbps float64, seed uint64) network.Scenario {
	return network.Scenario{
		Seed:     seed,
		Field:    p.field,
		Nodes:    p.nodes,
		Card:     radio.Cabletron,
		Stack:    st,
		Flows:    traffic.RandomFlows(network.EndpointRNG(seed), p.flows, p.nodes, rateKbps*kbit, 128),
		Duration: p.dur,
	}
}

// densityScenario is the large-field run at 4 Kbit/s with nodes on the x
// axis. Endpoints stay among the first p.nodes nodes: uniform placement
// draws those positions identically at every density, matching the paper's
// "without changing the positions of source and destination nodes".
func densityScenario(p netParams, st network.Stack, nodes float64, seed uint64) network.Scenario {
	sc := fieldScenario(p, st, 4, seed)
	sc.Nodes = int(nodes)
	return sc
}

// gridScenario places the grid and sends one flow per row, left column to
// right column.
func gridScenario(p netParams, st network.Stack, rateKbps float64, seed uint64) network.Scenario {
	flows := make([]traffic.Flow, p.rows)
	for row := range flows {
		flows[row] = traffic.Flow{
			ID:  row + 1,
			Src: row * p.cols, Dst: row*p.cols + p.cols - 1,
			Rate: rateKbps * kbit, PacketBytes: 128,
			StartMin: 20 * time.Second, StartMax: 25 * time.Second,
		}
	}
	return network.Scenario{
		Seed:      seed,
		Field:     p.field,
		Positions: geom.GridPlacement(p.field, p.rows, p.cols),
		Card:      radio.HypotheticalCabletron,
		Stack:     st,
		Flows:     flows,
		Duration:  p.dur,
	}
}

// The paper's protocol stacks.
var (
	titanPC    = network.Stack{Label: "TITAN-PC", Routing: network.ProtoTITAN, PM: network.PMODPM, PowerControl: true}
	dsrODPMPC  = network.Stack{Label: "DSR-ODPM-PC", Routing: network.ProtoDSR, PM: network.PMODPM, PowerControl: true}
	dsrODPM    = network.Stack{Label: "DSR-ODPM", Routing: network.ProtoDSR, PM: network.PMODPM}
	dsrActive  = network.Stack{Label: "DSR-Active", Routing: network.ProtoDSR, PM: network.PMAlwaysActive}
	dsrhNoRate = network.Stack{Label: "DSRH-ODPM(norate)", Routing: network.ProtoDSRHNoRate, PM: network.PMODPM}
	dsrhRate   = network.Stack{Label: "DSRH-ODPM(rate)", Routing: network.ProtoDSRHRate, PM: network.PMODPM}
	dsdvhPSM   = network.Stack{Label: "DSDVH-ODPM(5,10)-PSM", Routing: network.ProtoDSDVH, PM: network.PMODPM}
	dsdvhSpan  = network.Stack{
		Label: "DSDVH-ODPM(0.6,1.2)-Span", Routing: network.ProtoDSDVH, PM: network.PMODPM,
		ODPM:             power.ODPMConfig{DataTimeout: 600 * time.Millisecond, RouteTimeout: 1200 * time.Millisecond},
		AdvertisedWindow: true,
	}
)

// as relabels a stack for a figure that names it differently.
func as(label string, st network.Stack) network.Stack {
	st.Label = label
	return st
}

// titanVariant runs TITAN-PC with discovery mechanisms switched off.
func titanVariant(label string, opts routing.TITANOptions) network.Stack {
	return network.Stack{
		Label: label,
		PM:    network.PMODPM,
		Custom: func(env *routing.Env) routing.Protocol {
			return routing.NewTITANVariant(env, true, opts)
		},
	}
}

// keepAlive runs DSR-ODPM with the given keep-alive pair.
func keepAlive(label string, data, route time.Duration) network.Stack {
	return network.Stack{
		Label: label, Routing: network.ProtoDSR, PM: network.PMODPM,
		ODPM: power.ODPMConfig{DataTimeout: data, RouteTimeout: route},
	}
}

// result lifts a Results accessor into a field.
func result(of func(network.Results) float64) func(run, float64) float64 {
	return func(rn run, _ float64) float64 { return of(rn.res) }
}

// The Results fields the plots draw.
var (
	delivery = result(func(r network.Results) float64 { return r.DeliveryRatio })
	goodput  = result(func(r network.Results) float64 { return r.EnergyGoodput })
	radiated = result(func(r network.Results) float64 { return r.TxAmpEnergy })
	relays   = result(func(r network.Results) float64 { return float64(r.Relays) })
	idle     = result(func(r network.Results) float64 { return r.Energy.Idle })
)

// netsNote describes a random-field sizing.
func netsNote(p netParams) string {
	return fmt.Sprintf("%d nodes, %.0fx%.0f m2, %d flows, %v, %d seeds",
		p.nodes, p.field.Width, p.field.Height, p.flows, p.dur, p.seeds)
}

const rateAxis = "rate (Kbit/s)"

// The grid projection's offered rates (Kbit/s).
var (
	lowRates  = []float64{2, 3, 4, 5}
	highRates = []float64{50, 100, 150, 200}
)

// catalogue is the paper's Section 5 in paper order, then the ablations:
// experiments beyond the paper that isolate TITAN's two discovery
// mechanisms, the ODPM keep-alive values, the power-control flag and the
// Span-style advertised window, quantifying why its protocols behave the
// way they do. Every ID list and dispatcher reads this table; a figure
// pair that plots the same runs is two plots of one study.
var catalogue = []*study{
	{name: "table1", plots: []plot{{
		id: "table1", title: "Radio parameters for the modelled wireless cards",
		notes:    []string{"sleep power and switch energy are not in the paper's table; see radio package docs"},
		analytic: table1,
	}}},
	{name: "fig7", plots: []plot{{
		id: "fig7", title: "Characteristic hop count m_opt vs bandwidth utilization R/B (Eq. 15)", xlabel: "R/B",
		notes: []string{
			"m_opt < 2 for every real card: relaying between nodes in range never saves energy",
			"only the Hypothetical Cabletron reaches m_opt >= 2 (at R/B ~ 0.25)",
		},
		analytic: fig7,
	}}},
	{
		name: "fig8/9", sizing: []func(Scale) netParams{smallNets}, scenario: fieldScenario, note: netsNote,
		lines: lines(titanPC, dsrODPMPC, dsdvhPSM, dsdvhSpan, dsrhNoRate, dsrhRate, dsrODPM, dsrActive),
		plots: []plot{
			{id: "fig8", title: "Delivery ratio, small networks (500x500 m2)", xlabel: rateAxis,
				fields: []field{{"", delivery}}},
			{id: "fig9", title: "Energy goodput (bit/J), small networks (500x500 m2)", xlabel: rateAxis,
				fields: []field{{"", goodput}}},
		},
	},
	{
		name: "fig10", sizing: []func(Scale) netParams{smallNets, largeNets}, scenario: fieldScenario,
		lines: lines(titanPC, dsrODPM),
		plots: []plot{{
			id: "fig10", title: "Transmit energy (J), TITAN-PC vs DSR-ODPM", xlabel: rateAxis,
			notes: []string{
				"transmit energy = radiated (amplifier) joules, the Pt component TPC reduces;",
				"the paper's Fig. 10 magnitudes (<= 80 J over 900 s) match this accounting",
			},
			fields: []field{{"", radiated}},
		}},
	},
	{
		name: "fig11/12", sizing: []func(Scale) netParams{largeNets}, scenario: fieldScenario, note: netsNote,
		lines: lines(titanPC, dsrODPMPC, as("DSDVH-ODPM", dsdvhPSM), dsrhNoRate, dsrhRate, dsrODPM, dsrActive),
		plots: []plot{
			{id: "fig11", title: "Delivery ratio, large networks (1300x1300 m2)", xlabel: rateAxis,
				fields: []field{{"", delivery}}},
			{id: "fig12", title: "Energy goodput (bit/J), large networks (1300x1300 m2)", xlabel: rateAxis,
				fields: []field{{"", goodput}}},
		},
	},
	{
		name: "table2", sizing: []func(Scale) netParams{densityNets}, scenario: densityScenario,
		note: func(p netParams) string {
			return fmt.Sprintf("field %.0fx%.0f, %d flows, %v, %d seeds",
				p.field.Width, p.field.Height, p.flows, p.dur, p.seeds)
		},
		lines: lines(dsrODPMPC, titanPC),
		plots: []plot{{
			id: "table2", title: "Performance with node density (4 Kbit/s per flow)", xlabel: "# of nodes",
			fields: []field{{" delivery", delivery}, {" goodput(bit/J)", goodput}},
		}},
	},
	{
		// The hypothetical-card grid study (Section 5.2.3) follows the
		// paper's own methodology: routes are stabilized by simulation at
		// 2 Kbit/s, then Enetwork is computed for higher rates from the
		// stabilized routes "to understand the potential of each approach
		// without the side effects of high rates (e.g., packet losses due
		// to buffer overflows)".
		name: "fig13-16", sizing: []func(Scale) netParams{gridNets}, scenario: gridScenario, routes: true,
		note: func(p netParams) string {
			return fmt.Sprintf("%dx%d grid in %.0fx%.0f m2, Hypothetical Cabletron, routes stabilized at 2 Kbit/s then projected (paper Section 5.2.3)",
				p.rows, p.cols, p.field.Width, p.field.Height)
		},
		// DSRH carries pc: the joint approach applies power control and
		// power management "with equal emphasis" (Section 4.2), so its
		// data frames go at the learned minimum power like the comm-first
		// stacks'.
		lines: []line{
			{titanPC, true},
			{as("DSRH(norate)", dsrhNoRate), true},
			{network.Stack{Label: "MTPR", Routing: network.ProtoMTPR, PM: network.PMODPM}, true},
			{network.Stack{Label: "MTPR+", Routing: network.ProtoMTPRPlus, PM: network.PMODPM}, true},
			{as("DSR", dsrODPM), false},
			{dsrActive, false},
		},
		plots: []plot{
			{id: "fig13", title: "Energy goodput, low rates, perfect sleep scheduling (Kbit/J)", xlabel: rateAxis,
				xs: lowRates, fields: []field{{"", projected(schedPerfect)}}},
			{id: "fig14", title: "Energy goodput, low rates, ODPM scheduling (Kbit/J)", xlabel: rateAxis,
				xs: lowRates, fields: []field{{"", projected(schedODPM)}}},
			{id: "fig15", title: "Energy goodput, high rates, perfect sleep scheduling (Kbit/J)", xlabel: rateAxis,
				xs: highRates, fields: []field{{"", projected(schedPerfect)}}},
			{id: "fig16", title: "Energy goodput, high rates, ODPM scheduling (Kbit/J)", xlabel: rateAxis,
				xs: highRates, fields: []field{{"", projected(schedODPM)}}},
		},
	},
	{
		name: "ablation-titan", ablation: true, sizing: []func(Scale) netParams{ablationNets}, scenario: fieldScenario,
		lines: lines(
			titanVariant("TITAN-PC (full)", routing.TITANOptions{}),
			titanVariant("no probability", routing.TITANOptions{DisableProbability: true}),
			titanVariant("no deferral", routing.TITANOptions{DisableDeferral: true}),
			titanVariant("neither (≈DSR-PC)", routing.TITANOptions{DisableProbability: true, DisableDeferral: true}),
		),
		plots: []plot{{
			id: "ablation-titan", title: "TITAN mechanism ablation", xlabel: rateAxis,
			notes:  []string{"TITAN minus its participation bias and its PSM deferral, one at a time"},
			fields: []field{{" goodput", goodput}, {" relays", relays}},
		}},
	},
	{
		name: "ablation-odpm", ablation: true, sizing: []func(Scale) netParams{ablationNets}, scenario: fieldScenario,
		lines: lines(
			keepAlive("0.6s/1.2s", 600*time.Millisecond, 1200*time.Millisecond),
			keepAlive("2s/4s", 2*time.Second, 4*time.Second),
			keepAlive("5s/10s (paper)", 5*time.Second, 10*time.Second),
			keepAlive("20s/40s", 20*time.Second, 40*time.Second),
		),
		plots: []plot{{
			id: "ablation-odpm", title: "ODPM keep-alive ablation (DSR-ODPM)", xlabel: rateAxis,
			notes:  []string{"short keep-alives save idling but risk route churn; long ones idle like always-active"},
			fields: []field{{" goodput", goodput}, {" delivery", delivery}},
		}},
	},
	{
		name: "ablation-pc", ablation: true, sizing: []func(Scale) netParams{ablationNets}, scenario: fieldScenario,
		lines: lines(as("PC on", dsrODPMPC), as("PC off", dsrODPM)),
		plots: []plot{{
			id: "ablation-pc", title: "Power-control ablation (DSR-ODPM)", xlabel: rateAxis,
			notes:  []string{"PC cuts radiated energy but barely moves total goodput on real cards (Section 5.1's myth)"},
			fields: []field{{" radiated(J)", radiated}, {" goodput", goodput}},
		}},
	},
	{
		// The advertised window on a broadcast-heavy proactive stack.
		name: "ablation-span", ablation: true, sizing: []func(Scale) netParams{ablationNets}, scenario: fieldScenario,
		lines: lines(
			network.Stack{Label: "span on", Routing: network.ProtoDSDVH, PM: network.PMODPM, AdvertisedWindow: true},
			as("span off", dsdvhPSM),
		),
		plots: []plot{{
			id: "ablation-span", title: "Advertised-traffic-window ablation (DSDVH-ODPM)", xlabel: rateAxis,
			notes: []string{"the advertised window lets PSM nodes sleep after announced broadcasts arrive,",
				"trading idle energy for the delivery loss the paper observed (Section 5.2.1)"},
			fields: []field{{" idle(J)", idle}, {" delivery", delivery}},
		}},
	},
}
