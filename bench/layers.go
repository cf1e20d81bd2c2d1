package main

import (
	"encoding/json"
	"fmt"
	"time"

	"eend"
	"eend/internal/cache"
	"eend/internal/dist"
	"eend/opt"
	"eend/sweep"
)

// macCounters adds one run's MAC counters to a section's exact counters.
func macCounters(exact map[string]uint64, res *eend.Results) {
	exact["mac.frames"] += res.MAC.UnicastSent + res.MAC.UnicastFailed + res.MAC.BroadcastSent + res.MAC.ATIMSent
	exact["mac.retries"] += res.MAC.Retries
	exact["phy.collisions"] += res.MAC.CollisionsSeen
	exact["sim.events"] += res.Events
}

// replayGrid walks one grid the way sweep.Runner does, one public call at a
// time, each inside a span under one "replay.pass" span: expand, build,
// fingerprint, then per point either the warm path (cache.Get, decode) or
// the cold one (Run, encode, cache.Put).
func replayGrid(e *env, tr *tracer, parent int, spec string, store *cache.Disk, warm bool, m map[string]float64) error {
	pass := tr.begin("replay.pass", parent)
	defer tr.end(pass)
	var pts []sweep.Point
	var err error
	tr.time("sweep.expand", pass, func() {
		var grid *sweep.Grid
		if grid, err = sweep.ParseGrid(spec); err == nil {
			pts, err = grid.Points()
		}
	})
	if err != nil {
		return err
	}
	for _, pt := range pts {
		var sc *eend.Scenario
		tr.time("eend.build", pass, func() { sc, err = pt.Scenario() })
		if err != nil {
			return err
		}
		var fp string
		tr.time("eend.fingerprint", pass, func() { _ = sc.Canonical(); fp = sc.Fingerprint() })
		var data []byte
		if warm {
			var ok bool
			tr.time("cache.get", pass, func() { data, ok, err = store.Get(fp) })
			if err != nil || !ok {
				return fmt.Errorf("replay: warm cache has no entry for point %d (%v)", pt.Index, err)
			}
			var res eend.Results
			tr.time("codec.decode", pass, func() { err = json.Unmarshal(data, &res) })
			if err != nil {
				return err
			}
		} else {
			var res *eend.Results
			start := time.Now()
			if res, err = sc.Run(e.ctx); err != nil {
				return err
			}
			end := time.Now()
			tr.add("network.run", pass, start, end)
			m["network.run.ms."+stackLabel(pt.Params["stack"])] += end.Sub(start).Seconds() * 1000
			tr.time("codec.encode", pass, func() { data, err = json.Marshal(res) })
			if err != nil {
				return err
			}
			tr.time("cache.put", pass, func() { err = store.Put(fp, data) })
			if err != nil {
				return err
			}
		}
		m["cache.bytes_per_entry"] += float64(len(data))
	}
	return nil
}

// replayed turns the replay's spans into the layer metrics of one section.
// Only the replay records spans of these names, so they are summed wherever
// they hang.
func replayed(tr *tracer, m map[string]float64) {
	for metric, name := range map[string]string{
		"sweep.expand.busy_s": "sweep.expand", "eend.build.busy_s": "eend.build",
		"eend.fingerprint.busy_s": "eend.fingerprint", "codec.decode.busy_s": "codec.decode",
		"codec.encode.busy_s": "codec.encode",
	} {
		m[metric] = tr.busy(name, 0)
	}
	m["eend.build.calls"] = float64(len(tr.durations("eend.build", 0)))
	m["cache.bytes_per_entry"] /= m["eend.build.calls"]
}

// layers replays the counted section's grid cold at one worker, which gives each
// stack's per-point cost, and measures the two-worker speed-up on it.
func (g *gridCold) layers(tr *tracer, parent int, counted section, m map[string]float64) error {
	dir, err := g.e.tempDir("replay")
	if err != nil {
		return err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	if err := replayGrid(g.e, tr, parent, g.spec(countedSection), store, false, m); err != nil {
		return err
	}
	replayed(tr, m)
	for _, st := range paperStacks {
		m["network.run.ms."+stackLabel(st)] /= float64(counted.exact["points"]) / float64(len(paperStacks))
	}
	one, err := g.sweep(countedSection, 1, &recorder{})
	if err != nil {
		return err
	}
	m["exec.speedup_w2"] = one.wall.Seconds() / counted.wall.Seconds()
	return nil
}

// layers replays the section's warm passes step by step; what Runner.Run
// spends beyond those steps is the sweep layer's own overhead.
func (g *gridWarm) layers(tr *tracer, parent int, counted section, m map[string]float64) error {
	store, err := cache.Open(g.dir)
	if err != nil {
		return err
	}
	for p := 0; p < g.passes; p++ {
		if err := replayGrid(g.e, tr, parent, g.spec, store, true, m); err != nil {
			return err
		}
	}
	replayed(tr, m)
	steps := m["sweep.expand.busy_s"] + m["eend.build.busy_s"] + m["eend.fingerprint.busy_s"] +
		m["codec.decode.busy_s"] + tr.busy("cache.get", 0)
	m["sweep.overhead_s"] = counted.wall.Seconds() - steps
	return nil
}

// layers times what set-up did once more, and the cheap bound tier.
func (s *searchAnalytic) layers(tr *tracer, parent int, _ section, m map[string]float64) error {
	var err error
	tr.time("opt.from_scenario", parent, func() { _, err = opt.FromScenario(s.p.Scenario) })
	if err != nil {
		return err
	}
	tr.time("bound.comb", parent, func() { _, err = s.p.Bound(opt.BoundOptions{Tier: opt.BoundComb}) })
	if err != nil {
		return err
	}
	m["opt.from_scenario.busy_s"] = tr.busy("opt.from_scenario", parent)
	m["bound.comb.busy_s"] = tr.busy("bound.comb", parent)
	m["bound.lagrange.iterations"] = float64(s.lastBound.Iterations)
	m["opt.step_us.p50"] = s.stepP50us
	if gap, _, defined := opt.BoundGap(s.last.BestEnergy, s.lastBound.Value); defined {
		m["bound.gap"] = gap
	}
	return nil
}

func (s *searchSim) layers(tr *tracer, parent int, _ section, m map[string]float64) error {
	var err error
	tr.time("opt.from_scenario", parent, func() { _, err = opt.FromScenario(s.p.Scenario) })
	m["opt.from_scenario.busy_s"] = tr.busy("opt.from_scenario", parent)
	return err
}

// layers reads the client-side spans per route, then repeats parts of the
// counted section in process to separate the daemon's layers from HTTP: scenario
// builds, ParseCanonical and dist.Engine.Evaluate on the same batches, and
// plain Scenario.Run against the scenarios round trip.
func (d *daemon) layers(tr *tracer, parent int, _ section, m map[string]float64) error {
	var all []float64
	for _, name := range routeNames {
		ms := tr.durations(name, 0)
		m[name+".p50_ms"] = median(ms)
		all = append(all, ms...)
	}
	m["http.op_tail_ms"] = percentile(all, 95)
	m["jobs.inflight_max"] = d.inflightMax

	reqs, err := generate(d.e.cfg.seed, countedSection, 0, d.perClient, d.workingSet)
	if err != nil {
		return err
	}
	dir, err := d.e.tempDir("dist")
	if err != nil {
		return err
	}
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	engine := dist.Engine{Store: store, Workers: d.e.workers}
	var inProcess []float64
	for _, r := range reqs {
		switch r.kind {
		case reqScenario:
			var req struct {
				Seed uint64 `json:"seed"`
			}
			if err := json.Unmarshal(r.body, &req); err != nil {
				return err
			}
			var sc *eend.Scenario
			tr.time("eend.build", parent, func() { sc, err = mixScenario(req.Seed) })
			if err != nil {
				return err
			}
			if len(inProcess) < 100 {
				start := time.Now()
				if _, err := sc.Run(d.e.ctx); err != nil {
					return err
				}
				inProcess = append(inProcess, time.Since(start).Seconds()*1000)
			}
		case reqEvaluate:
			var batch struct {
				Scenarios []string `json:"scenarios"`
			}
			if err := json.Unmarshal(r.body, &batch); err != nil {
				return err
			}
			tr.time("eend.parse_canonical", parent, func() {
				for _, text := range batch.Scenarios {
					if _, perr := eend.ParseCanonical(text); perr != nil {
						err = perr
					}
				}
			})
			if err != nil {
				return err
			}
			tr.time("dist.evaluate", parent, func() { engine.Evaluate(d.e.ctx, batch.Scenarios) })
		}
	}
	m["eend.build.busy_s"] = tr.busy("eend.build", parent)
	m["eend.build.calls"] = float64(len(tr.durations("eend.build", parent)))
	m["eend.parse_canonical.busy_s"] = tr.busy("eend.parse_canonical", parent)
	m["dist.evaluate.busy_s"] = tr.busy("dist.evaluate", parent)
	m["http.overhead_ms"] = m["http.scenarios.p50_ms"] - median(inProcess)
	return nil
}

// runProbes times, once, the storm case a workload leaves out because one
// such point would swamp it: the cold grid's mtpr/odpm point, field-1k's DSR
// flood with 50 flows.
func runProbes(e *env, workload string, m map[string]float64) error {
	if e.cfg.smoke {
		return nil
	}
	var name string
	var opts []eend.Option
	switch workload {
	case "paper-grid-cold":
		name = "probe.mtpr_storm_s"
		opts = []eend.Option{eend.WithSeed(1), eend.WithNodes(50), eend.WithStack(eend.MTPR, eend.ODPM),
			eend.WithDuration(120 * time.Second), eend.WithWorkload(eend.NewWorkload(eend.WorkloadCBR, 10, 4*1024, 128))}
	case "field-1k":
		preset, err := eend.ParseFieldPreset("field-1k")
		if err != nil {
			return err
		}
		name = "probe.dsr_flood_1k_s"
		opts = append(preset.Options(), eend.WithSeed(1), eend.WithStack(eend.DSR, eend.ODPM),
			eend.WithDuration(40*time.Second), eend.WithRandomFlows(50, 4096, 128))
	default:
		return nil
	}
	sc, err := eend.NewScenario(opts...)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := sc.Run(e.ctx); err != nil {
		return err
	}
	m[name] = time.Since(start).Seconds()
	return nil
}
