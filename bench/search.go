package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"eend"
	"eend/opt"
)

// stepClock turns Options.OnStep calls into per-step latencies: each op is
// the interval since the previous step (or since the search began).
type stepClock struct {
	rec  *recorder
	last time.Time
	n    int
}

func (c *stepClock) start() { c.last = time.Now() }

func (c *stepClock) step(opt.Step) {
	c.last = c.last.Add(c.rec.op("", c.last))
	c.n++
}

// searchAnalytic is search-analytic: anneal over the closed-form objective
// on a 1000-node instance, then certify the result with the Lagrangian
// bound. The instance is fixed; -seed draws each section's search seed.
type searchAnalytic struct {
	e          *env
	p          *opt.Problem
	iterations int
	boundIters int
	last       *opt.Result // the most recent section's, for the layer ledger
	lastBound  *opt.BoundResult
	stepP50us  float64
}

func setupSearchAnalytic(e *env) (instance, error) {
	place := []eend.Option{eend.WithField(400, 400), eend.WithNodes(40), eend.WithTopology(eend.UniformTopology())}
	if !e.cfg.smoke {
		preset, err := eend.ParseFieldPreset("field-1k")
		if err != nil {
			return nil, err
		}
		place = preset.Options()
	}
	sc, err := eend.NewScenario(append(place, eend.WithSeed(1),
		eend.WithRandomFlows(pick(e, 40, 4), 4096, 128), eend.WithDuration(60*time.Second))...)
	if err != nil {
		return nil, err
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		return nil, err
	}
	return &searchAnalytic{e: e, p: p, iterations: pick(e, 3000, 200), boundIters: pick(e, 20, 5)}, nil
}

func (s *searchAnalytic) run(i int, rec *recorder) (section, error) {
	seed := mix(s.e.cfg.seed, 4, uint64(i))
	clock := &stepClock{rec: rec}
	first := len(rec.lat)
	t0 := time.Now()
	clock.start()
	res, err := s.p.Search(s.e.ctx, s.p.Analytic(), opt.Options{
		Algorithm: opt.Anneal, Iterations: s.iterations, Seed: seed, OnStep: clock.step})
	if err != nil {
		return section{}, err
	}
	t1 := time.Now()
	rec.span("opt.search", t0, t1)
	br, err := s.p.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: seed, Iterations: s.boundIters})
	if err != nil {
		return section{}, err
	}
	t2 := time.Now()
	rec.span("bound.lagrange", t1, t2)
	s.last, s.lastBound, s.stepP50us = res, br, median(rec.lat[first:])*1000
	sec := section{wall: t2.Sub(t0), ops: clock.n,
		digest: fmt.Sprintf("%s %016x %016x", res.BestFingerprint, math.Float64bits(res.BestEnergy), math.Float64bits(br.Value)),
		exact:  map[string]uint64{"opt.evals": uint64(res.Iterations)}}
	if br.Value > res.BestEnergy {
		sec.failed = sec.ops // a bound above the best design is a wrong answer
	}
	return sec, nil
}

func (s *searchAnalytic) close() error { return nil }

// searchSim is search-sim: anneal with the simulator as the objective into
// an empty cache directory, then the identical search on the now-warm
// directory, which must not simulate and must find the same design. A
// section is several such pairs, each with its own drawn search seed: how
// many candidates one seed's trajectory visits varies by half, and only the
// sum over many short searches is steady. One op is one pair. (A search
// step as the op puts the median latency on the edge between memo hits and
// disk hits, a single search on the edge between warm and cold ones; it
// jumps on both.)
type searchSim struct {
	e          *env
	p          *opt.Problem
	pairs      int // cold+warm search pairs per section
	iterations int
}

func setupSearchSim(e *env) (instance, error) {
	sc, err := eend.NewScenario(
		eend.WithNodes(pick(e, 40, 12)), eend.WithField(pick(e, 800.0, 350.0), pick(e, 800.0, 350.0)),
		eend.WithTopology(eend.ClusterTopology(0, 0)), eend.WithSeed(1),
		eend.WithRandomFlows(pick(e, 12, 3), 2048, 128), eend.WithDuration(pick(e, 40*time.Second, 30*time.Second)))
	if err != nil {
		return nil, err
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		return nil, err
	}
	return &searchSim{e: e, p: p, pairs: pick(e, 3, 1), iterations: pick(e, 40, 20)}, nil
}

func (s *searchSim) run(i int, rec *recorder) (section, error) {
	sec := section{exact: map[string]uint64{}}
	h := sha256.New()
	for k := 0; k < s.pairs; k++ {
		if err := s.pair(mix(s.e.cfg.seed, 5, uint64(i), uint64(k)), rec, &sec, h); err != nil {
			return section{}, err
		}
	}
	sec.digest = hex.EncodeToString(h.Sum(nil))
	return sec, nil
}

// pair runs one search cold and then warm, and adds the op to the section.
func (s *searchSim) pair(seed uint64, rec *recorder, sec *section, digest io.Writer) error {
	dir, err := s.e.tempDir("search")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	search := func() (*opt.Result, opt.SimStats, error) {
		sim, err := s.p.Simulated(opt.SimConfig{CacheDir: dir})
		if err != nil {
			return nil, opt.SimStats{}, err
		}
		t0 := time.Now()
		res, err := s.p.Search(s.e.ctx, sim, opt.Options{Algorithm: opt.Anneal, Iterations: s.iterations, Seed: seed})
		rec.span("opt.search", t0, time.Now())
		return res, sim.Stats(), err
	}
	t0 := time.Now()
	cold, coldStats, err := search()
	if err != nil {
		return err
	}
	warm, warmStats, err := search()
	if err != nil {
		return err
	}
	sec.wall += rec.op("", t0)
	sec.ops++
	fmt.Fprintf(digest, "%s %016x\n", cold.BestFingerprint, math.Float64bits(cold.BestEnergy))
	sec.exact["opt.evals"] += uint64(coldStats.Evals + warmStats.Evals)
	sec.exact["opt.sim_runs"] += uint64(coldStats.SimRuns)
	if warmStats.SimRuns != 0 || warm.BestFingerprint != cold.BestFingerprint || warm.BestEnergy != cold.BestEnergy {
		sec.failed++
	}
	return nil
}

func (s *searchSim) close() error { return nil }
