// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). The evaluation is one ordered catalogue
// (catalogue.go): each study declares its sizing per scale, its protocol
// stacks, its scenario builder and the plots drawn from its runs, and one
// runner (runner.go) expands a study into seeded jobs, executes them on the
// shared scheduler (internal/exec) and assembles the Figures: the same
// series the paper plots, as mean ± 95% CI over seeded runs. A figure is
// asked for by id; every ID list and dispatcher is a lookup in that table.
// Experiments run at two scales: Quick (CI-sized: smaller fields, fewer
// seeds, shorter horizons) and Full (the paper's parameters).
package experiments

import (
	"context"
	"fmt"

	"eend/internal/metrics"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick shrinks node counts, durations and seed counts so the whole
	// suite runs in seconds (used by go test and the benchmarks).
	Quick Scale = iota + 1
	// Full uses the paper's parameters (Section 5.2).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return Quick, nil
	case "full", "paper":
		return Full, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want quick|full)", s)
	}
}

// Figure is a reproduced table or figure. The JSON field names are the
// machine-readable contract served by cmd/eendfig -format json and
// cmd/eendd; keep them stable.
type Figure struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	XLabel string            `json:"xlabel,omitempty"`
	Series []*metrics.Series `json:"series,omitempty"`
	Text   string            `json:"text,omitempty"`  // preformatted content for non-series tables (Table 1)
	Notes  []string          `json:"notes,omitempty"` // caveats and paper-vs-measured remarks
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", f.ID, f.Title)
	if f.Text != "" {
		out += f.Text
	} else {
		out += metrics.Table(f.XLabel, f.Series)
	}
	for _, n := range f.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// CSV renders the figure's series as CSV (empty for text-only tables).
func (f *Figure) CSV() string {
	if len(f.Series) == 0 {
		return ""
	}
	return metrics.CSV(f.XLabel, f.Series)
}

// Runner executes experiments at a given scale, on the ctx's scheduler
// (GOMAXPROCS workers, shared with every other layer). Each run owns its
// simulator, so results are independent of the worker count.
type Runner struct {
	Scale Scale
	// Progress, if non-nil, receives human-readable status lines. It may be
	// called from multiple goroutines.
	Progress func(format string, args ...any)
}

func (r Runner) logf(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(format, args...)
	}
}

// IDs lists every reproducible experiment in paper order.
func IDs() []string { return plotIDs(false) }

// AblationIDs lists the ablation experiments.
func AblationIDs() []string { return plotIDs(true) }

// plotIDs flattens one namespace of the catalogue in order.
func plotIDs(ablation bool) []string {
	var ids []string
	for _, st := range catalogue {
		if st.ablation == ablation {
			for _, pl := range st.plots {
				ids = append(ids, pl.id)
			}
		}
	}
	return ids
}

// All regenerates every paper experiment in paper order, running each
// study once however many figures plot its runs (8/9, 11/12, 13-16). A
// cancelled ctx stops between (and inside) studies and returns the figures
// completed so far with the context's error.
func (r Runner) All(ctx context.Context) ([]*Figure, error) {
	var out []*Figure
	for _, st := range catalogue {
		if st.ablation {
			continue
		}
		out = append(out, r.runStudy(ctx, st)...)
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Run dispatches an experiment by ID. A cancelled ctx aborts the underlying
// simulation sweep early and returns the context's error.
func (r Runner) Run(ctx context.Context, id string) (*Figure, error) {
	return r.dispatch(ctx, id, false)
}

// RunAblation dispatches an ablation experiment by ID. A cancelled ctx
// aborts the underlying sweep early and returns the context's error.
func (r Runner) RunAblation(ctx context.Context, id string) (*Figure, error) {
	return r.dispatch(ctx, id, true)
}

// find returns the study that draws plot id and the plot's position among
// the study's plots (nil when no study draws it).
func find(id string) (*study, int) {
	for _, st := range catalogue {
		for i, pl := range st.plots {
			if pl.id == id {
				return st, i
			}
		}
	}
	return nil, 0
}

// dispatch runs the study that draws plot id, if the catalogue lists it in
// the asked-for namespace, and returns that plot.
func (r Runner) dispatch(ctx context.Context, id string, ablation bool) (*Figure, error) {
	st, i := find(id)
	if st == nil || st.ablation != ablation {
		kind := "id"
		if ablation {
			kind = "ablation"
		}
		return nil, fmt.Errorf("experiments: unknown %s %q (want one of %v)", kind, id, plotIDs(ablation))
	}
	figs := r.runStudy(ctx, st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return figs[i], nil
}
