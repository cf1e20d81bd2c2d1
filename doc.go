// Package eend is a reproduction of "Heuristic Approaches to
// Energy-Efficient Network Design Problem" (Sengul & Kravets, ICDCS 2007):
// a deterministic discrete-event wireless network simulator (802.11-style
// MAC with power-save mode, ODPM/TITAN power management, six routing
// protocols), the formal node-weighted design problem with its Steiner
// gadget analyses, the analytical characteristic-hop-count study, and a
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// The root package is the public facade: scenarios are built with
// functional options and run under a context.Context, so even Full-scale
// runs cancel promptly:
//
//	sc, err := eend.NewScenario(
//		eend.WithField(500, 500),
//		eend.WithNodes(50),
//		eend.WithStack(eend.TITAN, eend.ODPM, eend.PowerControl()),
//		eend.WithRandomFlows(10, 2048, 128),
//	)
//	res, err := sc.Run(ctx)
//
// Batches of scenarios run concurrently through RunBatch, which streams
// results as they complete over the shared execution runtime: one bounded
// scheduler (internal/exec) carries batches, replicate fan-out and design
// searches, keeping parallel output bit-identical to sequential. RunBatch
// groups its input by Fingerprint first, so identical scenarios share one
// run (the duplicates arrive Cached) at every worker count, and its
// channel holds the whole batch, so a result that finished is never lost
// to a slow reader. Results,
// Figure and the metric series marshal to stable JSON for machine
// consumption (served over HTTP by cmd/eendd).
//
// WithReplicates(n) reproduces the paper's methodology of averaging 5-10
// independent runs per point: the scenario executes once per derived seed
// (ReplicateSeed; replicate 0 is the base seed, so replicated and single
// runs agree bit-for-bit on their scalar metrics) and Results.Replicates
// carries the mean and 95% confidence interval of every headline metric,
// JSON-tagged for the HTTP and CSV surfaces. Replicates fingerprint
// individually, so sweeps cache them per seed — widening a replicates
// axis simulates only the new seeds.
//
// The event kernel under all of this is allocation-free on its hot path:
// events live in a value slab threaded with a free list, the queue is a
// hand-rolled 4-ary heap of slot indices, and timer handles are
// generation-checked values, so scheduling or firing a pooled event costs
// zero heap allocations and cancellation removes in O(log n). Events are
// totally ordered by (time, scheduling sequence), which makes runs
// bit-reproducible regardless of heap internals — pinned by golden
// fingerprint tests and a differential test against the original
// container/heap kernel.
//
// Beyond the paper's placements and traffic, WithTopology selects a
// placement generator (uniform, perturbed grid, clustered hotspots,
// corridor chains) and WithWorkload a traffic generator (CBR, bursty
// on/off, convergecast), giving single runs and parameter sweeps one
// shared scenario vocabulary.
//
// Every Scenario has a canonical encoding (Canonical) and a content
// address (Fingerprint, its SHA-256): scenarios that would produce
// identical Results fingerprint identically, stably across processes and
// platforms. The eend/sweep package builds on this to expand declarative
// parameter grids into scenario batches with an on-disk result cache —
// re-running a sweep with one axis changed simulates only the new points
// (see cmd/eendsweep and eendd's POST /v1/sweeps).
//
// The eend/opt package closes the design↔simulation loop: it derives the
// formal design problem from a deployment (opt.FromScenario), improves
// designs with metaheuristic search (greedy, simulated annealing,
// random restarts over route-swap, power-down and rewire moves), and
// scores candidates either with the closed-form Enetwork (Eq. 5) or by
// running them through the simulator with their routes pinned
// (WithStack(StaticRoutes(...))). Pinned routes join the canonical
// encoding, so simulated candidates are content-addressed by (deployment,
// design) and cached evaluations are never repeated. Entry points:
// design.Optimize, cmd/eendopt, the sweep heuristic axis, and eendd's
// POST /v1/optimize. ARCHITECTURE.md maps the layers and the paper→code
// correspondence; docs/http-api.md documents the HTTP surface.
//
// Layout:
//
//	eend (root)           public facade: scenarios, options, batches, experiments
//	design                public facade for the formal design problem (Section 3)
//	sweep                 parameter grids, grid-spec parser, caching sweep runner
//	opt                   design-space search: moves, anneal/greedy/restart, objectives
//	internal/sim          discrete-event kernel (allocation-free slab + 4-ary heap)
//	internal/geom         placement geometry
//	internal/topology     placement generators (uniform, grid, cluster, corridor)
//	internal/cache        content-addressed on-disk result store
//	internal/eval         the one evaluation path: fingerprint → cache, else simulate
//	internal/radio        card models (Table 1) + energy meter (Eqs. 1-4)
//	internal/phy          medium: propagation, collisions, carrier sense
//	internal/mac          802.11 DCF + PSM (beacons, ATIM windows), TPC
//	internal/power        ODPM keep-alives, always-active
//	internal/routing      DSR, MTPR(+), DSRH, DSDV(H), TITAN
//	internal/traffic      CBR flows and delivery accounting
//	internal/network      scenario assembly and metrics
//	internal/core         the design problem: Enetwork, Steiner/MPC, m_opt
//	internal/metrics      means and 95% confidence intervals (JSON-marshalable)
//	internal/experiments  one catalogue of the paper's tables/figures, one runner
//	cmd/eendfig           regenerate all tables and figures (-format text|json|csv)
//	cmd/eendsim           run a single scenario (-json, -topology)
//	cmd/eendsweep         run a parameter grid with the result cache (CSV/JSON)
//	cmd/eendopt           design-space search with CSV/JSON trajectories
//	cmd/eendd             HTTP service: scenarios, figures, sweeps, optimizations
//	tools/linkcheck       markdown cross-reference checker (the CI docs job)
//
// The benchmarks in bench_test.go regenerate each experiment at Quick
// scale; run cmd/eendfig -scale full for the paper-sized versions.
package eend
