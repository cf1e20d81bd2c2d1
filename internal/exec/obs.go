package exec

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"eend/internal/obs"
)

// Scheduler instrumentation, shared by every scheduler in the process
// (the unified runtime means per-scheduler splits carry no signal).
var (
	queueDepth = obs.Default().Gauge("eend_exec_queue_depth",
		"Items currently queued across all schedulers.")
	itemsDone = obs.Default().Counter("eend_exec_items_total",
		"Items executed to completion.")
	busySeconds = obs.Default().FloatCounter("eend_exec_busy_seconds_total",
		"Wall-clock seconds workers spent inside item Do functions.")
	itemSeconds = obs.Default().Histogram("eend_exec_item_seconds",
		"Per-item Do latency in seconds.", obs.LatencyBuckets)
)

// timedDo runs an item's Do under the worker-busy and latency metrics. A
// panic in Do fails that item alone: it becomes the item's error (the stack
// goes to stderr), so its siblings, the worker and the process carry on.
func timedDo(ctx context.Context, do func(context.Context) (any, error)) (v any, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "exec: item panicked: %v\n%s", r, debug.Stack())
			v, err = nil, fmt.Errorf("exec: item panicked: %v", r)
		}
		d := time.Since(start).Seconds()
		busySeconds.Add(d)
		itemSeconds.Observe(d)
		itemsDone.Inc()
	}()
	return do(ctx)
}
