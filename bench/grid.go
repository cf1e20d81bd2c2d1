package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"eend/sweep"
)

// mix derives an independent 63-bit value from the run seed and a path of
// indices (splitmix64 steps), so every generated input is a function of
// -seed alone.
func mix(seed uint64, idx ...uint64) uint64 {
	x := splitmix(seed)
	for _, i := range idx {
		x = splitmix(x ^ i)
	}
	return x >> 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scenarioSeeds draws n distinct scenario seeds, small enough to read.
func scenarioSeeds(seed uint64, n int, idx ...uint64) []string {
	out := make([]string, n)
	seen := map[uint64]bool{}
	for k, try := 0, uint64(0); k < n; try++ {
		s := mix(seed, append(idx, try)...)%1_000_000_000 + 1
		if !seen[s] {
			seen[s] = true
			out[k] = fmt.Sprint(s)
			k++
		}
	}
	return out
}

// digestResults hashes sweep results in grid order: the fingerprint of every
// point's Results, which covers each metric down to per-node energies.
func digestResults(results []sweep.Result) string {
	h := sha256.New()
	for _, r := range results {
		if r.Results != nil {
			fmt.Fprintln(h, r.Fingerprint, r.Results.Fingerprint())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridCold is paper-grid-cold: each section sweeps the six paper stacks over
// the same two deployments (scenario seeds 1 and 2) into an empty cache
// directory. -seed draws each section's offered rate within 5 % of the
// paper's 4 Kbit/s: every packet time, collision and fingerprint changes
// with it, but not the topologies, whose redraw alone moves a row's cost by
// a third and would drown any regression this benchmark is meant to catch.
type gridCold struct {
	e     *env
	fixed string // the grid's axes that do not depend on the seed
}

func setupGridCold(e *env) (instance, error) {
	return &gridCold{e: e, fixed: fmt.Sprintf("stack=%s %s", strings.Join(paperStacks, ","),
		pick(e, "nodes=50 seed=1,2 flows=10 dur=120s", "nodes=12 field=300 seed=1 flows=2 dur=30s"))}, nil
}

func (g *gridCold) spec(i int) string {
	rate := 3.8 + 0.4*float64(mix(g.e.cfg.seed, 1, uint64(i))%10001)/10000
	return fmt.Sprintf("%s rate=%.4f", g.fixed, rate)
}

func (g *gridCold) run(i int, rec *recorder) (section, error) {
	return g.sweep(i, g.e.workers, rec)
}

// sweep runs section i's grid through sweep.Runner at the given worker count.
func (g *gridCold) sweep(i, workers int, rec *recorder) (section, error) {
	grid, err := sweep.ParseGrid(g.spec(i))
	if err != nil {
		return section{}, err
	}
	dir, err := g.e.tempDir("cold")
	if err != nil {
		return section{}, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	results, prog, err := sweep.Runner{Workers: workers, CacheDir: dir}.Run(g.e.ctx, grid)
	if err != nil {
		return section{}, err
	}
	sec := section{wall: rec.op("sweep.run", t0), ops: 1, digest: digestResults(results),
		exact: map[string]uint64{"points": uint64(prog.Done)}}
	for _, r := range results {
		if r.Results != nil {
			macCounters(sec.exact, r.Results)
		}
	}
	if prog.Errors > 0 || prog.CacheHits > 0 || prog.Done != grid.Size() {
		sec.failed = 1
	}
	return sec, nil
}

func (g *gridCold) close() error { return nil }

// gridWarm is paper-grid-warm: set-up fills a cache directory once, and
// every op is a full pass over the same grid through a new Runner, which
// must answer every point from the cache.
type gridWarm struct {
	e      *env
	spec   string
	dir    string
	passes int    // ops per section
	points int    // grid size
	filled string // digest of the results that filled the cache
}

func setupGridWarm(e *env) (instance, error) {
	g := &gridWarm{e: e, passes: pick(e, 10, 2)}
	g.spec = fmt.Sprintf("stack=%s %s seed=%s", strings.Join(paperStacks, ","),
		pick(e, "nodes=20,50 flows=4 dur=40s", "nodes=8 field=250 flows=2 rate=2 dur=30s"),
		strings.Join(scenarioSeeds(e.cfg.seed, pick(e, 10, 2), 2), ","))
	grid, err := sweep.ParseGrid(g.spec)
	if err != nil {
		return nil, err
	}
	if g.dir, err = e.tempDir("warm"); err != nil {
		return nil, err
	}
	results, prog, err := sweep.Runner{Workers: e.workers, CacheDir: g.dir}.Run(e.ctx, grid)
	if err != nil {
		return nil, err
	}
	if prog.Errors > 0 || prog.Done != grid.Size() {
		return nil, fmt.Errorf("cache fill: %d of %d points done, %d errors", prog.Done, grid.Size(), prog.Errors)
	}
	g.points, g.filled = grid.Size(), digestResults(results)
	return g, nil
}

func (g *gridWarm) run(_ int, rec *recorder) (section, error) {
	sec := section{ops: g.passes, exact: map[string]uint64{"points": uint64(g.points)}}
	h := sha256.New()
	for p := 0; p < g.passes; p++ {
		t0 := time.Now()
		results, prog, err := g.pass(g.e.ctx)
		if err != nil {
			return section{}, err
		}
		sec.wall += rec.op("sweep.run", t0)
		d := digestResults(results)
		fmt.Fprintln(h, d, prog.CacheHits)
		if prog.CacheHits != g.points || prog.Errors > 0 || d != g.filled {
			sec.failed++
		}
	}
	sec.digest = hex.EncodeToString(h.Sum(nil))
	return sec, nil
}

// pass is one op: parse the grid and run it through a new Runner on the
// warm directory, as a repeated eendsweep invocation would.
func (g *gridWarm) pass(ctx context.Context) ([]sweep.Result, sweep.Progress, error) {
	grid, err := sweep.ParseGrid(g.spec)
	if err != nil {
		return nil, sweep.Progress{}, err
	}
	return sweep.Runner{Workers: g.e.workers, CacheDir: g.dir}.Run(ctx, grid)
}

func (g *gridWarm) close() error { return nil }
