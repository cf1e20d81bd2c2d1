package eend

import (
	"context"
	"slices"

	"eend/internal/experiments"
)

// The experiment harness (every table and figure of the paper's Section 5,
// one catalogue in internal/experiments) re-exported for public consumption.

type (
	// Figure is a reproduced table or figure.
	Figure = experiments.Figure
	// Scale selects experiment sizing (Quick or Full).
	Scale = experiments.Scale
	// Runner executes experiments at a given scale; its Run, RunAblation
	// and All methods take a context.Context and abort early when it is
	// cancelled.
	Runner = experiments.Runner
)

// Experiment scales.
const (
	// Quick shrinks node counts, durations and seed counts so the whole
	// suite runs in seconds.
	Quick = experiments.Quick
	// Full uses the paper's parameters (up to an hour of wall time).
	Full = experiments.Full
)

// ParseScale converts a CLI/HTTP string ("quick", "full", "paper") to a
// Scale.
func ParseScale(s string) (Scale, error) { return experiments.ParseScale(s) }

// ExperimentIDs lists every reproducible paper experiment in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// AblationIDs lists the ablation experiments (beyond the paper).
func AblationIDs() []string { return experiments.AblationIDs() }

// IsExperimentID reports whether id names a paper experiment or an
// ablation.
func IsExperimentID(id string) bool {
	return slices.Contains(ExperimentIDs(), id) || slices.Contains(AblationIDs(), id)
}

// RunExperiment dispatches a paper experiment or an ablation by ID on the
// runner, whichever namespace the ID belongs to. A cancelled ctx aborts the
// underlying sweep early and returns the context's error.
func RunExperiment(ctx context.Context, r Runner, id string) (*Figure, error) {
	if slices.Contains(AblationIDs(), id) {
		return r.RunAblation(ctx, id)
	}
	return r.Run(ctx, id)
}
