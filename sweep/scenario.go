package sweep

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"eend"
	"eend/opt"
)

// pointConfig accumulates one point's parsed parameters before they become
// facade options. Traffic parameters are gathered separately because one
// WithWorkload option is built from up to four axes.
type pointConfig struct {
	opts []eend.Option

	workload    eend.WorkloadKind
	flows       int
	rateKbps    float64
	packetBytes int

	// heuristic, when set, replaces the protocol stack with a static design
	// produced by the named method (Section 4 heuristic or opt search) and
	// pinned via eend.StaticRoutes — the axis that puts designed and
	// searched solutions side by side with the reactive protocols.
	heuristic string
}

// axisRegistry maps axis names to their value parsers. Every axis mirrors
// a facade option (or, for the traffic axes, a field of the generated
// workload), so the sweep vocabulary and the programmatic API stay one.
var axisRegistry = map[string]func(*pointConfig, string) error{
	"replicates": number(strconv.Atoi, "replicate count", "", with(eend.WithReplicates)),
	"seed":       number(parseUint, "seed", "", with(eend.WithSeed)),
	"nodes":      number(strconv.Atoi, "node count", "", with(eend.WithNodes)),
	"field": func(c *pointConfig, v string) error {
		w, h, err := eend.ParseField(v)
		if err != nil {
			return fmt.Errorf("bad field %q", v)
		}
		c.opts = append(c.opts, eend.WithField(w, h))
		return nil
	},
	"stack": parsed(ParseStack, func(c *pointConfig, s []eend.StackOption) { c.opts = append(c.opts, eend.WithStack(s...)) }),
	"heuristic": func(c *pointConfig, v string) error {
		if !opt.ValidMethod(v) {
			return fmt.Errorf("bad heuristic %q (want one of %v)", v, opt.Methods())
		}
		c.heuristic = v
		return nil
	},
	"topology":  parsed(eend.ParseTopology, with(eend.WithTopology)),
	"workload":  parsed(eend.ParseWorkloadKind, func(c *pointConfig, k eend.WorkloadKind) { c.workload = k }),
	"flows":     number(strconv.Atoi, "flow count", "", func(c *pointConfig, n int) { c.flows = n }),
	"rate":      number(parseFloat, "rate", " (Kbit/s)", func(c *pointConfig, r float64) { c.rateKbps = r }),
	"packet":    number(strconv.Atoi, "packet size", "", func(c *pointConfig, n int) { c.packetBytes = n }),
	"dur":       number(time.ParseDuration, "duration", "", with(eend.WithDuration)),
	"card":      parsed(eend.ParseCard, with(eend.WithCard)),
	"battery":   number(parseFloat, "battery", " (J)", with(eend.WithBattery)),
	"bandwidth": number(parseFloat, "bandwidth", " (bit/s)", with(eend.WithBandwidth)),
}

// parsed is the axis whose value parse reads and set applies; a value parse
// refuses is parse's error.
func parsed[T any](parse func(string) (T, error), set func(*pointConfig, T)) func(*pointConfig, string) error {
	return func(c *pointConfig, v string) error {
		x, err := parse(v)
		if err == nil {
			set(c, x)
		}
		return err
	}
}

// number is parsed for an axis whose value is one number: a value parse
// refuses is a "bad <noun>" error, unit appended.
func number[T any](parse func(string) (T, error), noun, unit string, set func(*pointConfig, T)) func(*pointConfig, string) error {
	return parsed(func(v string) (T, error) {
		x, err := parse(v)
		if err != nil {
			err = fmt.Errorf("bad %s %q%s", noun, v, unit)
		}
		return x, err
	}, set)
}

// with applies a parsed value through the facade option it mirrors.
func with[T any](option func(T) eend.Option) func(*pointConfig, T) {
	return func(c *pointConfig, x T) { c.opts = append(c.opts, option(x)) }
}

func parseUint(v string) (uint64, error)   { return strconv.ParseUint(v, 10, 64) }
func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// AxisNames lists the axes a grid may declare, sorted.
func AxisNames() []string { return slices.Sorted(maps.Keys(axisRegistry)) }

// ParseStack parses the sweep stack syntax routing[-pc][-span][-perfect]/pm,
// e.g. "titan-pc/odpm", "dsr/active", "dsdvh-pc-span/odpm". Modifier
// suffixes are stripped right-to-left, so routing names that themselves
// contain dashes ("dsrh-rate") parse unambiguously.
func ParseStack(v string) ([]eend.StackOption, error) {
	routingPart, pmPart, ok := strings.Cut(v, "/")
	if !ok {
		return nil, fmt.Errorf("sweep: stack %q is not routing/pm", v)
	}
	var mods []eend.StackOption
	for {
		switch {
		case strings.HasSuffix(routingPart, "-pc"):
			routingPart = strings.TrimSuffix(routingPart, "-pc")
			mods = append(mods, eend.PowerControl())
		case strings.HasSuffix(routingPart, "-span"):
			routingPart = strings.TrimSuffix(routingPart, "-span")
			mods = append(mods, eend.Span())
		case strings.HasSuffix(routingPart, "-perfect"):
			routingPart = strings.TrimSuffix(routingPart, "-perfect")
			mods = append(mods, eend.PerfectSleep())
		default:
			routing, err := eend.ParseRouting(routingPart)
			if err != nil {
				return nil, err
			}
			pm, err := eend.ParsePM(pmPart)
			if err != nil {
				return nil, err
			}
			return append([]eend.StackOption{routing, pm}, mods...), nil
		}
	}
}

// Quality certifies a heuristic-axis point's design: the method's analytic
// Enetwork, the lower-bound oracle's certificate for the same instance, and
// the optimality gap between them. Gap is nil when the ratio is undefined
// (non-positive bound below the design energy), so CSV and JSON renderings
// never leak NaN or Inf.
type Quality struct {
	// Method is the heuristic axis value that produced the design.
	Method string `json:"method"`
	// Energy is the design's closed-form Enetwork (Eq. 5).
	Energy float64 `json:"energy"`
	// Bound is the certified lower bound and Tier the oracle that made it.
	Bound float64 `json:"bound"`
	Tier  string  `json:"tier"`
	// Gap is (Energy − Bound)/Bound, nil when undefined. GapCertified
	// reports that the bound proves the design optimal.
	Gap          *float64 `json:"gap,omitempty"`
	GapCertified bool     `json:"gap_certified"`
}

// Scenario translates a point into a validated eend.Scenario. Traffic
// defaults mirror cmd/eendsim: 10 CBR flows at 2 Kbit/s with 128 B packets
// when the grid declares no traffic axes.
func (p Point) Scenario() (*eend.Scenario, error) {
	return p.ScenarioContext(context.Background())
}

// ScenarioContext is Scenario with materialization bounded by ctx: a
// heuristic-axis point runs a design search to materialize, which a
// cancelled sweep must be able to abort.
func (p Point) ScenarioContext(ctx context.Context) (*eend.Scenario, error) {
	sc, _, err := p.materialize(ctx)
	return sc, err
}

// materialize is ScenarioContext plus the design-quality certificate: for
// heuristic-axis points the designed scenario arrives with its Quality
// (design energy, lower bound, gap); for plain points Quality is nil.
func (p Point) materialize(ctx context.Context) (*eend.Scenario, *Quality, error) {
	c := pointConfig{
		workload:    eend.WorkloadCBR,
		flows:       10,
		rateKbps:    2,
		packetBytes: 128,
	}
	// Axes apply in sorted-name order; the facade's options are
	// order-independent, so any deterministic order works.
	for _, name := range AxisNames() {
		v, ok := p.Params[name]
		if !ok {
			continue
		}
		if err := axisRegistry[name](&c, v); err != nil {
			return nil, nil, fmt.Errorf("sweep: point %d: axis %s: %w", p.Index, name, err)
		}
	}
	c.opts = append(c.opts, eend.WithWorkload(
		eend.NewWorkload(c.workload, c.flows, c.rateKbps*1024, c.packetBytes)))
	if c.heuristic != "" {
		return p.designedScenario(ctx, c)
	}
	sc, err := eend.NewScenario(c.opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	return sc, nil, nil
}

// designedScenario materializes a heuristic-axis point: build the
// deployment, derive the design problem, run the named method under the
// analytic objective at its default budget (seeded with the scenario seed),
// and pin the resulting routes as a static stack. The scenario's
// fingerprint then covers placement, traffic AND design, so the result
// cache answers repeated (deployment, design) pairs without simulating.
// The design leaves with its quality certificate, read off the method's
// Result once the lower-bound oracle's answer for the same instance
// (Lagrangian tier, seeded with the scenario seed) is folded into it, so a
// sweep's CSV can report gap per heuristic value.
func (p Point) designedScenario(ctx context.Context, c pointConfig) (*eend.Scenario, *Quality, error) {
	// A Section 4 method and the bound never look at ctx themselves.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if _, ok := p.Params["stack"]; ok {
		return nil, nil, fmt.Errorf("sweep: point %d: heuristic axis conflicts with stack axis (the heuristic pins its own static stack)", p.Index)
	}
	// The design problem needs materialized positions; an absent topology
	// axis means the facade's run-time uniform draw, so request the same
	// placement through the generator instead.
	opts := c.opts
	if _, ok := p.Params["topology"]; !ok {
		opts = append([]eend.Option{eend.WithTopology(eend.UniformTopology())}, opts...)
	}
	base, err := eend.NewScenario(opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	prob, err := opt.FromScenario(base)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	res, err := prob.SearchMethod(ctx, c.heuristic, prob.Analytic(), opt.Options{Seed: base.Seed()})
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: heuristic %s: %w", p.Index, c.heuristic, err)
	}
	br, err := prob.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: base.Seed()})
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: bound: %w", p.Index, err)
	}
	res.ApplyBound(br)
	q := &Quality{
		Method: c.heuristic, Energy: res.BestEnergy,
		Bound: *res.Bound, Tier: res.BoundTier,
		Gap: res.Gap, GapCertified: res.GapCertified,
	}
	sc, err := prob.PinnedScenario(res.Best, base.Replicates())
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	return sc, q, nil
}
