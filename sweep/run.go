package sweep

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"eend"
	"eend/internal/cache"
	"eend/internal/dist"
	"eend/internal/eval"
	"eend/internal/obs"
)

// Progress is a live snapshot of a sweep run.
type Progress struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	CacheHits int `json:"cache_hits"`
	Errors    int `json:"errors"`
}

// Result is one completed grid point.
type Result struct {
	// Point is the parameter assignment that produced this result.
	Point Point `json:"point"`
	// Fingerprint is the scenario's content address (its cache key).
	Fingerprint string `json:"fingerprint"`
	// Cached reports that Results came from the cache, not a simulation.
	Cached bool `json:"cached"`
	// Results is nil when Err is set.
	Results *eend.Results `json:"results,omitempty"`
	// Error mirrors Err for JSON consumers.
	Error string `json:"error,omitempty"`
	// Err reports a failed or cancelled run.
	Err error `json:"-"`

	// Quality is the design-quality certificate of a heuristic-axis point
	// (design energy, lower bound, optimality gap); nil for plain points.
	Quality *Quality `json:"quality,omitempty"`

	// Scenario is the materialized scenario (not serialized).
	Scenario *eend.Scenario `json:"-"`
}

// Runner executes parameter grids. The zero value runs with GOMAXPROCS
// workers and no cache.
type Runner struct {
	// Workers bounds concurrent simulations and cache lookups (<= 0: the
	// ctx's ambient scheduler, GOMAXPROCS unless the caller installed one).
	Workers int
	// CacheDir, when non-empty, enables the content-addressed result
	// cache rooted there: points whose scenario fingerprint is present are
	// answered from disk without simulating, and fresh results are stored
	// for the next sweep.
	CacheDir string
	// Cache, when non-nil, is the result store to use instead of opening
	// CacheDir — any cache.Store works (tiered over remote peers, in-memory
	// for tests). Cache takes precedence over CacheDir.
	Cache cache.Store
	// Remote, when non-empty, runs the simulations on the eendd workers at
	// these base URLs (e.g. "http://host:8080") instead of in process: the
	// sweep is sharded across the fleet by the dist coordinator, failed
	// shards retry on surviving workers, and the merged results are
	// bit-identical to a local run. Workers then bounds shards in flight
	// rather than local simulator goroutines.
	Remote []string
	// OnRetry, when non-nil, observes every failed remote dispatch that
	// will be retried (ignored for local runs). Calls may be concurrent.
	OnRetry func(worker string, err error)
	// OnProgress, when non-nil, is called after every completed point with
	// a monotone snapshot. Calls are sequential (never concurrent).
	OnProgress func(Progress)
	// Trace, when non-nil, records the sweep's span tree: one root "sweep"
	// span, a "point" span per grid point, a "replicate" span per derived
	// seed, and "cache"/"sim" leaves for each lookup and simulation. Remote
	// runs additionally hang the coordinator's "shard" spans off the root.
	// Span IDs derive from scenario fingerprints, so two runs of the same
	// grid produce identical trees; tracing observes timings only and never
	// changes results.
	Trace *obs.Tracer
}

// Run expands the grid, answers cached points from disk, simulates the
// rest concurrently, and returns every result in grid order along with the
// final progress. Setup faults (invalid grid, unbuildable scenario,
// unusable cache directory) fail fast with an error; per-point simulation
// failures and cancellations are reported in their Result.Err instead, so
// one failed point cannot discard a thousand finished ones.
func (r Runner) Run(ctx context.Context, g *Grid) ([]Result, Progress, error) {
	prep, err := r.PrepareContext(ctx, g)
	if err != nil {
		return nil, Progress{}, err
	}
	ch, err := prep.Stream(ctx)
	if err != nil {
		return nil, Progress{}, err
	}
	results := make([]Result, 0, prep.Total())
	for sr := range ch {
		results = append(results, sr)
	}
	slices.SortFunc(results, func(a, b Result) int { return a.Point.Index - b.Point.Index })
	return results, prep.progress, nil // final: the channel closed after the last point
}

// Prepared is a validated, fully expanded sweep: every point's Scenario is
// built and fingerprinted, so starting it cannot fail on configuration.
// Obtain one with Runner.Prepare; callers that don't need the two-phase
// split (validate synchronously, execute asynchronously) can use
// Runner.Run directly.
type Prepared struct {
	runner   Runner
	results  []Result
	progress Progress // Stream's live counts, final once its channel closes
}

// Total returns the number of points the sweep will deliver.
func (p *Prepared) Total() int { return len(p.results) }

// Prepare expands the grid and materializes every scenario up front: a
// malformed axis value is a configuration error, not a per-point runtime
// failure. No cache or simulator work happens yet.
func (r Runner) Prepare(g *Grid) (*Prepared, error) {
	return r.PrepareContext(context.Background(), g)
}

// PrepareContext is Prepare with materialization bounded by ctx:
// heuristic-axis points run design searches to materialize, and a
// cancelled sweep must not keep searching.
func (r Runner) PrepareContext(ctx context.Context, g *Grid) (*Prepared, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(pts))
	for i, pt := range pts {
		sc, q, err := pt.materialize(ctx)
		if err != nil {
			return nil, err
		}
		results[i] = Result{Point: pt, Scenario: sc, Fingerprint: sc.Fingerprint(), Quality: q}
	}
	return &Prepared{runner: r, results: results}, nil
}

// Stream starts the sweep and returns a channel delivering each point's
// result as it completes (cache hits first, then simulations in completion
// order; use Result.Point.Index to correlate). The channel is buffered for
// the whole sweep and closed when every deliverable result is in;
// cancelling ctx stops dispatching and aborts in-flight simulations, so
// undispatched points simply never appear. Stream consumes the Prepared
// sweep: call it at most once.
//
// Each point is one item of the shared evaluation path (internal/eval),
// which answers a replicated point (a grid with a replicates axis, or a
// scenario built with eend.WithReplicates) one derived seed at a time:
// each seed from the cache under its own fingerprint or simulated, so
// re-running a sweep with a widened replicates axis simulates only the new
// seeds, and a point is cached only when all of its seeds are.
func (p *Prepared) Stream(ctx context.Context) (<-chan Result, error) {
	r := p.runner
	results := p.results
	store, err := eval.OpenStore(r.Cache, r.CacheDir)
	if err != nil {
		return nil, err
	}

	tr := r.Trace
	sweepSp := tr.Start(obs.Span{}, "sweep", strconv.Itoa(len(results)))
	ev := eval.Evaluator{Store: store, Backend: r.backend(sweepSp), Workers: r.Workers, Trace: tr}

	out := make(chan Result, len(results))
	progress := &p.progress
	progress.Total = len(results)
	items := make([]eval.Item, len(results))
	for i := range results {
		items[i] = eval.Item{Scenario: results[i].Scenario, Span: tr.Start(sweepSp, "point", results[i].Fingerprint)}
	}
	// The cache pass runs here, so fully cached points are emitted before
	// Stream returns and before any simulation starts.
	simulate := ev.Stream(ctx, items, func(o eval.Outcome) {
		sr := results[o.Index]
		sr.Results, sr.Cached, sr.Err = o.Results, o.Cached, o.Err
		progress.Done++
		if sr.Cached {
			progress.CacheHits++
		}
		if sr.Err != nil {
			sr.Error = sr.Err.Error()
			progress.Errors++
			items[o.Index].Span.End(obs.A("error", sr.Error))
		} else {
			items[o.Index].Span.End(obs.A("cached", strconv.FormatBool(sr.Cached)),
				obs.AInt("replicates", int64(sr.Scenario.Replicates())))
		}
		countPoint(sr)
		out <- sr
		if r.OnProgress != nil {
			r.OnProgress(*progress)
		}
	})
	go func() {
		simulate()
		sweepSp.End(obs.AInt("points", int64(progress.Total)),
			obs.AInt("cache_hits", int64(progress.CacheHits)),
			obs.AInt("errors", int64(progress.Errors)))
		close(out)
	}()
	return out, nil
}

// backend selects the simulation backend: nil for the in-process
// simulator, or a dist coordinator over the configured remote workers. parent
// is the span the coordinator's shard spans attach under when the sweep is
// traced.
func (r Runner) backend(parent obs.Span) eval.Backend {
	if len(r.Remote) == 0 {
		return nil
	}
	co := dist.NewCoordinator(r.Remote)
	co.Parallel, co.Trace, co.Span = r.Workers, r.Trace, parent
	if r.OnRetry != nil {
		co.OnRetry = func(e dist.RetryEvent) { r.OnRetry(e.Worker, e.Err) }
	}
	return co.RunBatch
}

// hasHeuristicAxis reports whether the grid designs its points (and so
// carries quality certificates worth rendering).
func hasHeuristicAxis(g *Grid) bool {
	for _, a := range g.Axes() {
		if a.Name == "heuristic" {
			return true
		}
	}
	return false
}

// CSVHeader returns the column names cmd/eendsweep writes for a grid: the
// axes in declaration order, then the point metadata and headline metrics.
// Grids with a heuristic axis additionally get the design-quality columns
// (design energy, lower bound, optimality gap).
func CSVHeader(g *Grid) []string {
	cols := []string{"index"}
	for _, a := range g.Axes() {
		cols = append(cols, a.Name)
	}
	cols = append(cols,
		"fingerprint", "cached", "error",
		"stack_label", "sent", "delivered", "delivery_ratio",
		"energy_j", "energy_goodput_bit_per_j", "tx_energy_j", "tx_amp_energy_j", "relays",
		"replicates",
		"delivery_ratio_mean", "delivery_ratio_ci95",
		"energy_goodput_mean", "energy_goodput_ci95",
		"energy_j_mean", "energy_j_ci95")
	if hasHeuristicAxis(g) {
		cols = append(cols, "design_energy", "bound", "gap", "gap_certified")
	}
	return cols
}

// CSVRow renders one result in CSVHeader order.
func CSVRow(g *Grid, sr Result) []string {
	row := []string{fmt.Sprint(sr.Point.Index)}
	for _, a := range g.Axes() {
		row = append(row, sr.Point.Params[a.Name])
	}
	row = append(row, sr.Fingerprint, fmt.Sprint(sr.Cached), sr.Error)
	if sr.Results == nil {
		row = append(row, "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "")
		return appendQualityCols(g, row, sr.Quality)
	}
	res := sr.Results
	row = append(row,
		res.Stack,
		fmt.Sprint(res.Sent),
		fmt.Sprint(res.Delivered),
		fmt.Sprintf("%.6f", res.DeliveryRatio),
		fmt.Sprintf("%.6f", res.Energy.Total()),
		fmt.Sprintf("%.3f", res.EnergyGoodput),
		fmt.Sprintf("%.6f", res.TxEnergy),
		fmt.Sprintf("%.6f", res.TxAmpEnergy),
		fmt.Sprint(res.Relays))
	// The replicate-aggregate columns stay empty for unreplicated points,
	// so a reader can tell "single run" from "mean over one replicate".
	if rep := res.Replicates; rep != nil {
		row = append(row,
			fmt.Sprint(rep.N),
			fmt.Sprintf("%.6f", rep.DeliveryRatio.Mean),
			fmt.Sprintf("%.6f", rep.DeliveryRatio.CI95),
			fmt.Sprintf("%.3f", rep.EnergyGoodput.Mean),
			fmt.Sprintf("%.3f", rep.EnergyGoodput.CI95),
			fmt.Sprintf("%.6f", rep.EnergyTotal.Mean),
			fmt.Sprintf("%.6f", rep.EnergyTotal.CI95))
	} else {
		row = append(row, "1", "", "", "", "", "", "")
	}
	return appendQualityCols(g, row, sr.Quality)
}

// appendQualityCols renders the design-quality columns for grids with a
// heuristic axis. An undefined gap renders empty — never NaN or Inf — and
// a missing certificate (errored materialization path) leaves all four
// columns empty.
func appendQualityCols(g *Grid, row []string, q *Quality) []string {
	if !hasHeuristicAxis(g) {
		return row
	}
	if q == nil {
		return append(row, "", "", "", "")
	}
	gap := ""
	if q.Gap != nil {
		gap = fmt.Sprintf("%.6g", *q.Gap)
	}
	return append(row,
		fmt.Sprintf("%.6f", q.Energy),
		fmt.Sprintf("%.6f", q.Bound),
		gap,
		fmt.Sprint(q.GapCertified))
}
