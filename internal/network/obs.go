package network

import (
	"eend/internal/obs"
	"eend/internal/sim"
)

// Kernel-level instrumentation, registered on the process-wide registry.
// Recording happens outside the simulated model (event counts, wall time),
// so observed runs stay bit-identical to unobserved ones.
var (
	// kernelCounts is what every run's kernel reports its own tallies to,
	// in batches: no layer below this one touches a process-wide counter.
	kernelCounts = sim.NewCounters(obs.Default())
	simRuns      = obs.Default().Counter("eend_sim_runs_total",
		"Completed simulation runs.")
	simWall = obs.Default().FloatCounter("eend_sim_wall_seconds_total",
		"Wall-clock seconds spent inside the sim kernel.")
	simSpeedup = obs.Default().Histogram("eend_sim_speedup_ratio",
		"Per-run sim-time/wall-time ratio (virtual seconds per wall second).",
		obs.RatioBuckets)
)
