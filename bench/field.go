package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"eend"
)

// fieldRun is one kind of scenario run in a field-1k section.
type fieldRun struct {
	name  string
	stack []eend.StackOption
	flows int
	dur   time.Duration
}

// field is field-1k: every op is one Scenario.Run on the 1000-node preset,
// no cache and no scheduler. The deployment and the flow endpoints are the
// preset's at scenario seed 1; -seed draws the run's random stream (start
// jitter, backoff, flood timing) — a replicate, in the repository's terms.
// Redrawing the placement instead moves a run's cost by a fifth either way,
// which no bound this benchmark can afford would cover.
type field struct {
	e     *env
	base  *eend.Scenario // the deployment: positions and flow endpoints
	kinds []fieldRun
}

func setupField(e *env) (instance, error) {
	f := &field{e: e}
	place := []eend.Option{eend.WithField(300, 300), eend.WithNodes(30), eend.WithTopology(eend.UniformTopology())}
	if !e.cfg.smoke {
		preset, err := eend.ParseFieldPreset("field-1k")
		if err != nil {
			return nil, err
		}
		place = preset.Options()
	}
	f.kinds = []fieldRun{
		{name: "titan-pc/odpm", stack: []eend.StackOption{eend.TITAN, eend.ODPM, eend.PowerControl()},
			flows: pick(e, 10, 3), dur: pick(e, 40*time.Second, 30*time.Second)},
		{name: "dsr/odpm", stack: []eend.StackOption{eend.DSR, eend.ODPM},
			flows: pick(e, 5, 2), dur: pick(e, 40*time.Second, 30*time.Second)},
	}
	var err error
	f.base, err = eend.NewScenario(append(place, eend.WithSeed(1), eend.WithRandomFlows(f.kinds[0].flows, 4096, 128))...)
	return f, err
}

// scenario builds run kind k of section i: the fixed deployment under the
// section's drawn random stream.
func (f *field) scenario(i int, k fieldRun) (*eend.Scenario, error) {
	fl := f.base.Field()
	return eend.NewScenario(
		eend.WithField(fl.Width, fl.Height),
		eend.WithPositions(f.base.Positions()...),
		eend.WithFlows(f.base.Flows()[:k.flows]...),
		eend.WithSeed(mix(f.e.cfg.seed, 3, uint64(i))),
		eend.WithStack(k.stack...),
		eend.WithDuration(k.dur))
}

func (f *field) run(i int, rec *recorder) (section, error) {
	sec := section{exact: map[string]uint64{}}
	h := sha256.New()
	for _, k := range f.kinds {
		sc, err := f.scenario(i, k)
		if err != nil {
			return section{}, err
		}
		t0 := time.Now()
		res, err := sc.Run(f.e.ctx)
		sec.wall += rec.op("network.run", t0)
		sec.ops++
		if err != nil {
			sec.failed++
			continue
		}
		fmt.Fprintln(h, sc.Fingerprint(), res.Fingerprint())
		macCounters(sec.exact, res)
	}
	sec.digest = hex.EncodeToString(h.Sum(nil))
	return sec, nil
}

func (f *field) close() error { return nil }
