// Command qualitycheck is CI's solution-quality gate: it re-solves the
// repo's canonical design instances with the default search budget, runs
// the Lagrangian lower-bound oracle on each, and fails when the measured
// optimality gap regresses past the committed baseline
// (QUALITY_baseline.json). A refactor that silently weakens the search or
// the oracle shows up as a widened gap and breaks the build, the same way
// benchjson pins the performance trajectory.
//
//	go run ./tools/qualitycheck -baseline QUALITY_baseline.json
//
// -write regenerates the baseline from the current code (commit the result
// deliberately — a re-pin hides a regression as surely as deleting the
// gate). -tolerance is the absolute gap slack allowed over the baseline.
// -budget-scale shrinks the search budget by a factor; the tool's own
// tests use it to prove the gate actually fires when the search is starved
// (a tenth of the budget must fail against the committed baseline).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"time"

	"eend"
	"eend/opt"
)

// baselineVersion guards the file format; bump it when fields change so a
// stale baseline fails loudly instead of gating against garbage.
const baselineVersion = "eend.quality/1"

// searchIterations is the canonical search budget every instance is solved
// with: the search's own default, so the gate measures the quality a user
// gets out of the box.
const searchIterations = opt.DefaultIterations

// Instance is one canonical design problem the gate re-solves.
type Instance struct {
	Name  string
	Build func() (*eend.Scenario, error)
}

// Instances returns the canonical instances, smallest first. default-20 is
// eendopt's default run (the PR 4 acceptance instance); field-100 and
// field-1k are constant-density large-field presets under its workload,
// the second one large enough that the bound leaves a gap open.
func Instances() []Instance {
	return []Instance{
		{Name: "default-20", Build: func() (*eend.Scenario, error) {
			return eend.NewScenario(workload(eend.WithNodes(20), eend.WithField(600, 600),
				eend.WithTopology(eend.ClusterTopology(0, 0)))...)
		}},
		presetInstance("field-100"),
		presetInstance("field-1k"),
	}
}

// workload appends eendopt's default workload to a placement: seed 1,
// 8 flows at 2 Kbit/s, 128 B packets, 300 s.
func workload(placement ...eend.Option) []eend.Option {
	return append(placement, eend.WithSeed(1), eend.WithRandomFlows(8, 2*1024, 128), eend.WithDuration(300*time.Second))
}

// presetInstance is the named field preset under eendopt's default workload.
func presetInstance(name string) Instance {
	return Instance{Name: name, Build: func() (*eend.Scenario, error) {
		preset, err := eend.ParseFieldPreset(name)
		if err != nil {
			return nil, err
		}
		return eend.NewScenario(workload(preset.Options()...)...)
	}}
}

// Quality is one instance's measured (or pinned) solution quality.
type Quality struct {
	Method     string  `json:"method"`
	Iterations int     `json:"iterations"`
	Best       float64 `json:"best"`
	Bound      float64 `json:"bound"`
	Tier       string  `json:"tier"`
	// Gap is (Best − Bound)/Bound; GapCertified means the bound proves
	// Best optimal. A nil Gap (undefined ratio) never appears on the
	// canonical instances — Measure errors instead, so the baseline file
	// always carries a comparable number.
	Gap          float64 `json:"gap"`
	GapCertified bool    `json:"gap_certified"`
}

// Baseline is the committed quality trajectory.
type Baseline struct {
	Version   string             `json:"version"`
	Instances map[string]Quality `json:"instances"`
}

// Measure solves one instance with the canonical method at the given
// budget scale and bounds it with the Lagrangian oracle. scale 1 is the
// canonical budget; the gate's self-test passes 0.1 to prove starving the
// search widens the gap past the baseline.
func Measure(ctx context.Context, inst Instance, scale float64) (Quality, error) {
	sc, err := inst.Build()
	if err != nil {
		return Quality{}, fmt.Errorf("%s: %w", inst.Name, err)
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		return Quality{}, fmt.Errorf("%s: %w", inst.Name, err)
	}
	iters := int(math.Round(searchIterations * scale))
	if iters < 1 {
		iters = 1
	}
	res, err := p.SearchMethod(ctx, "anneal", p.Analytic(), opt.Options{Seed: 1, Iterations: iters})
	if err != nil {
		return Quality{}, fmt.Errorf("%s: %w", inst.Name, err)
	}
	br, err := p.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: 1})
	if err != nil {
		return Quality{}, fmt.Errorf("%s: %w", inst.Name, err)
	}
	if res.ApplyBound(br); res.Gap == nil {
		return Quality{}, fmt.Errorf("%s: gap undefined (bound %v)", inst.Name, br.Value)
	}
	return Quality{
		Method:       res.Algorithm,
		Iterations:   iters,
		Best:         res.BestEnergy,
		Bound:        *res.Bound,
		Tier:         res.BoundTier,
		Gap:          *res.Gap,
		GapCertified: res.GapCertified,
	}, nil
}

// MeasureAll measures every canonical instance.
func MeasureAll(ctx context.Context, scale float64) (map[string]Quality, error) {
	out := make(map[string]Quality)
	for _, inst := range Instances() {
		q, err := Measure(ctx, inst, scale)
		if err != nil {
			return nil, err
		}
		out[inst.Name] = q
	}
	return out, nil
}

// Check compares measured qualities against the baseline: every baseline
// instance must be measured, and its gap must not exceed the pinned gap by
// more than tolerance (absolute). A better (smaller) gap passes — the gate
// only bites on regression.
func Check(base Baseline, measured map[string]Quality, tolerance float64) error {
	if base.Version != baselineVersion {
		return fmt.Errorf("baseline version %q, want %q (regenerate with -write)", base.Version, baselineVersion)
	}
	if len(base.Instances) == 0 {
		return fmt.Errorf("baseline pins no instances")
	}
	for _, name := range slices.Sorted(maps.Keys(base.Instances)) {
		want := base.Instances[name]
		got, ok := measured[name]
		if !ok {
			return fmt.Errorf("instance %s pinned in the baseline but not measured", name)
		}
		if got.Gap > want.Gap+tolerance {
			return fmt.Errorf("instance %s: gap %.6g exceeds baseline %.6g + tolerance %g (best %.6f vs bound %.6f)",
				name, got.Gap, want.Gap, tolerance, got.Best, got.Bound)
		}
		if want.GapCertified && !got.GapCertified && got.Gap > tolerance {
			return fmt.Errorf("instance %s: baseline is certified optimal, measured gap %.6g is not", name, got.Gap)
		}
	}
	return nil
}

func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("qualitycheck", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "QUALITY_baseline.json", "committed quality baseline")
		write        = fs.Bool("write", false, "regenerate the baseline instead of checking")
		tolerance    = fs.Float64("tolerance", 0.01, "absolute optimality-gap slack over the baseline")
		budgetScale  = fs.Float64("budget-scale", 1, "search-budget factor (self-test hook; CI uses 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	measured, err := MeasureAll(ctx, *budgetScale)
	if err != nil {
		return err
	}
	if *write {
		base := Baseline{Version: baselineVersion, Instances: measured}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "qualitycheck: wrote %d instances to %s\n", len(measured), *baselinePath)
		return nil
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	if err := Check(base, measured, *tolerance); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(measured)) {
		q := measured[name]
		status := fmt.Sprintf("gap %.6g", q.Gap)
		if q.GapCertified {
			status = "certified optimal"
		}
		fmt.Fprintf(out, "qualitycheck: %s: best %.6f, bound %.6f (%s), %s\n",
			name, q.Best, q.Bound, q.Tier, status)
	}
	return nil
}

func main() {
	if err := run(context.Background(), os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qualitycheck:", err)
		os.Exit(1)
	}
}
