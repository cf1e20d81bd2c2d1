package main

import (
	"net/http"

	"eend/internal/buildinfo"
	"eend/internal/cache"
	"eend/internal/obs"
)

// metrics is the daemon's counter set, served at GET /metrics in the
// Prometheus text exposition format. The server-scoped families (the
// evaluation, shard-retry, cache-tier and job-gauge names pinned since
// they first shipped) live on a per-server obs.Registry, because
// fleet_test.go runs several daemons in one process and asserts each
// one's own eend_evaluations_total; the process-wide registry
// (obs.Default, where the sim kernel, exec scheduler, cache backends, dist
// coordinator and search layers register) is appended to the same
// exposition. The two registries use disjoint family names, so the
// concatenation is one valid exposition.
type metrics struct {
	// reg holds the server-scoped families; each job family adds its
	// eend_jobs_inflight gauge where its routes are registered.
	reg *obs.Registry
	// evaluations counts simulator runs performed for /v1/evaluate (cache
	// hits excluded — the warm-fleet contract is "this stays flat").
	evaluations *obs.Counter
	// shardRetries counts sweep/optimize shard dispatches that failed on
	// one worker and were retried on another.
	shardRetries *obs.Counter
}

// newMetrics registers the server-scoped families; the cache counters are
// read live from store (zero without one).
func newMetrics(store cache.Store) *metrics {
	stats := func() cache.Stats {
		if store == nil {
			return cache.Stats{}
		}
		return store.Stats()
	}
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,
		evaluations: r.Counter("eend_evaluations_total",
			"Simulator runs performed for /v1/evaluate (cache hits excluded)."),
		shardRetries: r.Counter("eend_shard_retries_total",
			"Distributed shards retried on another worker after a dispatch failed."),
	}
	r.CounterFunc("eend_cache_hits_total",
		"Result-cache hits by tier (remote = served by a fleet peer).",
		func() float64 { return float64(stats().Hits) }, obs.L("tier", "local"))
	r.CounterFunc("eend_cache_hits_total",
		"Result-cache hits by tier (remote = served by a fleet peer).",
		func() float64 { return float64(stats().RemoteHits) }, obs.L("tier", "remote"))
	r.CounterFunc("eend_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(stats().Misses) })
	r.CounterFunc("eend_cache_corrupt_total",
		"Cache entries rejected by the envelope checksum.",
		func() float64 { return float64(stats().Corrupt) })
	r.GaugeFunc("eend_build_info",
		"Build identity of this daemon; the value is always 1.",
		func() float64 { return 1 }, obs.L("version", buildinfo.Version()))
	return m
}

// serveHTTP renders the exposition. The content type is the Prometheus
// text format's, not JSON — the one deliberate exception on this API.
func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = m.reg.WriteText(w)
	_ = obs.Default().WriteText(w)
}
