package experiments

import (
	"context"
	"fmt"
	"slices"

	"eend/internal/exec"
	"eend/internal/metrics"
	"eend/internal/network"
)

// job is one seeded scenario execution within a study.
type job struct {
	p    netParams
	line line
	row  int // the line's position among the study's (sizing, line) pairs
	x    float64
	sc   network.Scenario
}

// run is one finished job as the plots' fields see it.
type run struct {
	job
	res network.Results
	// Grid study only: each flow's stabilized route, or nil with gap
	// saying which flow discovery left without one.
	routes [][]int
	gap    error
}

// expand is the one place a study at a scale becomes jobs: every sizing x
// line x x x seed, in the order results are observed.
func (st *study) expand(scale Scale) (sizing []netParams, jobs []job) {
	for si, size := range st.sizing {
		p := size(scale)
		sizing = append(sizing, p)
		for li, ln := range st.lines {
			for _, x := range p.xs {
				for s := 1; s <= p.seeds; s++ {
					jobs = append(jobs, job{
						p: p, line: ln, row: si*len(st.lines) + li, x: x,
						sc: st.scenario(p, ln.stack, x, uint64(s)),
					})
				}
			}
		}
	}
	return sizing, jobs
}

// execute runs the jobs on the shared scheduler and returns the runs in
// job order. Each scenario owns its simulator, so concurrency does not
// affect the outcome. Cancellation is checked per seeded run (and, inside
// each run, per event batch): a cancelled ctx stops dispatching jobs,
// aborts in-flight simulations, and returns the context's error.
func (r Runner) execute(ctx context.Context, st *study, jobs []job) ([]run, error) {
	if len(jobs) == 0 {
		return nil, nil // analytic study: complete whatever ctx says
	}
	items := make([]exec.Item, len(jobs))
	for i, j := range jobs {
		items[i] = exec.Item{Index: i, Do: func(ctx context.Context) (any, error) {
			rn, err := st.measure(ctx, j)
			if err != nil {
				return nil, fmt.Errorf("%s %s x=%g seed=%d: %w", st.name, j.line.stack.Label, j.x, j.sc.Seed, err)
			}
			r.logf("%s %-26s x=%g seed=%d: delivery=%.2f goodput=%.0f bit/J",
				st.name, j.line.stack.Label, j.x, j.sc.Seed, rn.res.DeliveryRatio, rn.res.EnergyGoodput)
			return rn, nil
		}}
	}
	results := exec.From(ctx).Gather(ctx, items)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runs := make([]run, len(jobs))
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		runs[i] = res.Value.(run)
	}
	return runs, nil
}

// measure simulates one job to its horizon.
func (st *study) measure(ctx context.Context, j job) (run, error) {
	nw, err := network.Build(j.sc)
	if err != nil {
		return run{}, err
	}
	res, err := nw.ExecuteContext(ctx)
	if err != nil {
		return run{}, err
	}
	rn := run{job: j, res: res}
	if st.routes {
		rn.routes, rn.gap = stabilizedRoutes(nw, j.sc)
	}
	return rn, nil
}

// runStudy executes a study once and assembles every plot drawn from it.
// A failed sweep keeps each figure's title, labels and notes, leaves its
// series empty and appends an ERROR note.
func (r Runner) runStudy(ctx context.Context, st *study) []*Figure {
	sizing, jobs := st.expand(r.Scale)
	runs, err := r.execute(ctx, st, jobs)

	figs := make([]*Figure, len(st.plots))
	for pi, pl := range st.plots {
		f := &Figure{ID: pl.id, Title: pl.title, XLabel: pl.xlabel, Notes: slices.Clone(pl.notes)}
		if pl.analytic != nil {
			pl.analytic(f)
		}
		if st.note != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("scale=%s: %s", r.Scale, st.note(sizing[0])))
		}
		if err != nil {
			f.Notes = append(f.Notes, "ERROR: "+err.Error())
		}
		for _, p := range sizing {
			size := ""
			if len(sizing) > 1 {
				size = fmt.Sprintf(" (%.0fx%.0f)", p.field.Width, p.field.Height)
			}
			for _, ln := range st.lines {
				for _, fd := range pl.fields {
					f.Series = append(f.Series, metrics.NewSeries(ln.stack.Label+size+fd.suffix))
				}
			}
		}
		figs[pi] = f
	}
	for _, rn := range runs {
		for pi, pl := range st.plots {
			if rn.gap != nil {
				figs[pi].Notes = append(figs[pi].Notes, fmt.Sprintf("%s: %v", rn.line.stack.Label, rn.gap))
				continue
			}
			xs := pl.xs
			if xs == nil {
				xs = []float64{rn.x}
			}
			for fi, fd := range pl.fields {
				s := figs[pi].Series[rn.row*len(pl.fields)+fi]
				for _, x := range xs {
					s.Observe(x, fd.of(rn, x))
				}
			}
		}
	}
	return figs
}
