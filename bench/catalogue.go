package main

import "strings"

// metricDef declares one metric the harness prints. BENCHMARK.json repeats
// the name, unit, direction and (for end-to-end metrics) bound; the test
// holds the two to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // gated end-to-end metrics only: share of the baseline median it may worsen by
	Moves  string  // layer metrics only: the end-to-end metric and workload it should move
	Doc    string
}

// endToEnd are the gated metrics: every workload prints every one of them
// from an untraced run, and none of them can be zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of five set-ups: input generation, FromScenario, cache fill, daemon spawn to first healthy /healthz"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "median over timed sections of ops completed / section wall time"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median op latency over every op of every timed section"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15,
		Doc: "median over timed sections of heap allocations / ops, in the process doing the work"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the process doing the work (the harness, or the eendd child)"},
}

// reportOnly are printed beside the gated metrics by `-workload all` but are
// not in BENCHMARK.json: each is zero or undefined on some workload, or an
// exact function of a gated metric.
var reportOnly = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower",
		Doc: "median timed section; ops per section / ops_per_s, so not gated twice"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower",
		Doc: "p95 when n >= 200, p90 when 100 <= n < 200, else null"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower",
		Doc: "ops failed, refused or with a wrong output / ops attempted; any value above 0 fails the run"},
}

// The six paper stacks the grid workloads sweep, and their metric labels.
var paperStacks = []string{"dsr/active", "dsr/odpm", "mtpr+/odpm", "dsrh/odpm", "dsdvh/odpm", "titan-pc/odpm"}

// cpuBuckets are the layers CPU samples are attributed to, by Go package.
var cpuBuckets = []string{"sim", "phy", "geom", "mac", "routing", "power", "traffic", "radio", "metrics",
	"network", "core", "opt", "bound", "cache", "exec", "json", "nethttp", "gc"}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		warm    = "ops_per_s on paper-grid-warm"
		cold    = "ops_per_s on paper-grid-cold"
		field   = "ops_per_s on field-1k"
		analyt  = "ops_per_s on search-analytic"
		simsrch = "ops_per_s on search-sim"
		daemon  = "ops_per_s on daemon-mix"
		simWall = "ops_per_s on paper-grid-cold, field-1k and search-sim"
	)
	defs := []metricDef{
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: traced / untraced section time, the cost of the tracing itself",
			Doc: "median traced section wall per op / median untraced section wall per op"},

		{Name: "sweep.expand.busy_s", Unit: "s", Better: "lower", Moves: warm, Doc: "ParseGrid + Points, per counted section"},
		{Name: "sweep.overhead_s", Unit: "s", Better: "lower", Moves: warm, Doc: "Runner.Run pass wall minus the replayed layer calls of the same pass"},
		{Name: "sweep.points_per_s", Unit: "1/s", Better: "higher", Moves: cold + "; " + warm, Doc: "grid points completed per second of section wall"},
		{Name: "eend.build.busy_s", Unit: "s", Better: "lower", Moves: warm + "; " + daemon, Doc: "Point.Scenario / NewScenario, per counted section"},
		{Name: "eend.build.calls", Unit: "count", Better: "lower", Moves: warm + "; " + daemon, Doc: "scenarios built per counted section"},
		{Name: "eend.fingerprint.busy_s", Unit: "s", Better: "lower", Moves: warm + "; " + simsrch, Doc: "Canonical + Fingerprint, per counted section"},
		{Name: "eend.parse_canonical.busy_s", Unit: "s", Better: "lower", Moves: daemon, Doc: "ParseCanonical of the section's evaluate batches"},
		{Name: "cache.get.busy_s", Unit: "s", Better: "lower", Moves: warm + "; " + daemon, Doc: "Disk.Get, per counted section"},
		{Name: "cache.put.busy_s", Unit: "s", Better: "lower", Moves: cold + "; " + simsrch + "; " + daemon, Doc: "Disk.Put, per counted section"},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: warm + "; " + simsrch, Doc: "disk-backend hits / lookups in the counted section (eend_cache_backend_* deltas)"},
		{Name: "cache.bytes_per_entry", Unit: "B", Better: "lower", Moves: warm, Doc: "mean stored Results JSON size in the counted section"},
		{Name: "codec.encode.busy_s", Unit: "s", Better: "lower", Moves: cold + "; " + daemon, Doc: "json.Marshal of Results, per counted section"},
		{Name: "codec.decode.busy_s", Unit: "s", Better: "lower", Moves: warm + "; " + daemon, Doc: "json.Unmarshal of Results, per counted section"},
		{Name: "network.run.busy_s", Unit: "s", Better: "lower", Moves: simWall, Doc: "Scenario.Run, per counted section"},
		{Name: "sim.virtual_s_per_wall_s", Unit: "ratio", Better: "higher", Moves: simWall, Doc: "simulated seconds per second inside Scenario.Run"},
	}
	for _, st := range paperStacks {
		defs = append(defs, metricDef{Name: "network.run.ms." + stackLabel(st), Unit: "ms", Better: "lower", Moves: cold,
			Doc: "one 50-node grid point of stack " + st + " at workers = 1"})
	}
	defs = append(defs,
		metricDef{Name: "sim.events", Unit: "count", Better: "lower", Moves: simWall, Doc: "eend_sim_events_total delta of the counted section (exact)"},
		metricDef{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: simWall, Doc: "events / time inside Scenario.Run"},
	)
	for _, l := range []string{"mac", "routing", "power", "traffic", "phy"} {
		defs = append(defs, metricDef{Name: "sim.timers." + l, Unit: "count", Better: "lower", Moves: simWall,
			Doc: "eend_sim_timers_total{layer=" + l + "} delta of the counted section (exact)"})
	}
	defs = append(defs,
		metricDef{Name: "mac.frames", Unit: "count", Better: "lower", Moves: field + "; " + cold, Doc: "unicast + broadcast + ATIM frames sent in the counted section (Results.MAC, exact)"},
		metricDef{Name: "mac.retry_ratio", Unit: "ratio", Better: "lower", Moves: field + "; " + cold, Doc: "MAC retries / frames"},
		metricDef{Name: "phy.collisions_per_frame", Unit: "ratio", Better: "lower", Moves: field, Doc: "corrupted receptions seen / frames"},
	)
	cpuMoves := map[string]string{
		"phy": field, "geom": field, "sim": simWall, "mac": cold, "routing": cold, "power": cold,
		"traffic": cold, "radio": cold, "metrics": cold, "network": simWall,
		"core": analyt, "opt": analyt, "bound": analyt,
		"cache": warm, "json": warm + "; " + daemon, "exec": cold, "nethttp": daemon,
		"gc": "allocs_per_op on every workload",
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: "cpu." + b + ".share", Unit: "ratio", Better: "lower", Moves: cpuMoves[b],
			Doc: "share of CPU-profile leaf samples in that package during the traced sections"})
	}
	defs = append(defs,
		metricDef{Name: "exec.busy_s", Unit: "s", Better: "lower", Moves: cold, Doc: "eend_exec_busy_seconds_total delta of the counted section"},
		metricDef{Name: "exec.items", Unit: "count", Better: "lower", Moves: cold, Doc: "eend_exec_items_total delta of the counted section"},
		metricDef{Name: "exec.coalesced", Unit: "count", Better: "higher", Moves: cold, Doc: "eend_exec_coalesced_total delta of the counted section"},
		metricDef{Name: "exec.parallel_efficiency", Unit: "ratio", Better: "higher", Moves: cold, Doc: "exec busy / (workers x counted section wall)"},
		metricDef{Name: "exec.speedup_w2", Unit: "ratio", Better: "higher", Moves: cold, Doc: "the counted section at workers = 1 / the same section at workers = 2"},

		metricDef{Name: "opt.from_scenario.busy_s", Unit: "s", Better: "lower", Moves: "setup_s on search-analytic and search-sim", Doc: "opt.FromScenario of the workload's deployment"},
		metricDef{Name: "opt.search.busy_s", Unit: "s", Better: "lower", Moves: analyt + "; " + simsrch, Doc: "Problem.Search, per counted section"},
		metricDef{Name: "opt.step_us.p50", Unit: "us", Better: "lower", Moves: "op_p50_ms on search-analytic", Doc: "median interval between OnStep calls"},
		metricDef{Name: "opt.accept_ratio", Unit: "ratio", Better: "higher", Moves: analyt, Doc: "accepted / (accepted + rejected) steps"},
		metricDef{Name: "opt.evals", Unit: "count", Better: "lower", Moves: analyt + "; " + simsrch, Doc: "objective evaluations per section (exact)"},
		metricDef{Name: "opt.sim_runs", Unit: "count", Better: "lower", Moves: simsrch, Doc: "simulator runs per section (exact)"},
		metricDef{Name: "opt.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: simsrch, Doc: "evaluations answered without a simulator run / evaluations"},
		metricDef{Name: "bound.comb.busy_s", Unit: "s", Better: "lower", Moves: analyt, Doc: "Problem.Bound, combinatorial tier"},
		metricDef{Name: "bound.lagrange.busy_s", Unit: "s", Better: "lower", Moves: analyt, Doc: "Problem.Bound, Lagrangian tier, per counted section"},
		metricDef{Name: "bound.lagrange.iterations", Unit: "count", Better: "lower", Moves: analyt, Doc: "subgradient iterations run"},
		metricDef{Name: "bound.gap", Unit: "ratio", Better: "lower", Moves: "none: quality of the design, not its cost", Doc: "(best energy - bound) / bound of the counted section"},

		metricDef{Name: "http.scenarios.p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on daemon-mix", Doc: "POST /v1/scenarios round trip"},
		metricDef{Name: "http.evaluate.p50_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "POST /v1/evaluate round trip, eight scenarios"},
		metricDef{Name: "http.cache_get.p50_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "GET /v1/cache/{fp} round trip"},
		metricDef{Name: "http.cache_put.p50_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "PUT /v1/cache/{fp} round trip"},
		metricDef{Name: "http.sweep_job.p50_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "POST /v1/sweeps until the job reads done"},
		metricDef{Name: "http.op_tail_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "p95 round trip over every request of the traced sections"},
		metricDef{Name: "http.overhead_ms", Unit: "ms", Better: "lower", Moves: daemon, Doc: "median scenarios round trip minus median in-process Run of the same scenarios"},
		metricDef{Name: "dist.evaluate.busy_s", Unit: "s", Better: "lower", Moves: daemon, Doc: "in-process dist.Engine.Evaluate of the section's evaluate batches"},
		metricDef{Name: "dist.evaluations", Unit: "count", Better: "lower", Moves: daemon, Doc: "eend_evaluations_total delta from the daemon's /metrics"},
		metricDef{Name: "jobs.inflight_max", Unit: "count", Better: "lower", Moves: daemon, Doc: "highest eend_jobs_inflight seen while polling sweep jobs"},
	)
	return defs
}

// stackLabel turns a stack name into the metric-name charset.
func stackLabel(stack string) string {
	return strings.NewReplacer("/", "-", "+", "plus").Replace(stack)
}

// probes are timed by `-workload all -traced` only: the two storm cases the
// workloads leave out because one such point would swamp a grid.
var probes = []metricDef{
	{Name: "probe.mtpr_storm_s", Unit: "s", Better: "lower", Doc: "one mtpr/odpm point at 50 nodes, flows=10 rate=4 dur=120s"},
	{Name: "probe.dsr_flood_1k_s", Unit: "s", Better: "lower", Doc: "DSR/ODPM with 50 flows on field-1k, 40 s"},
}
