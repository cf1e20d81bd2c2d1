package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // -scale smoke: seconds-long sizes for the tests
	report   string // where to write this run's full report ("" = nowhere)
	probes   bool   // a traced run also times the storm case its workload leaves out
}

func (c config) scale() string {
	if c.smoke {
		return "smoke"
	}
	return "full"
}

// env is what a workload's set-up receives.
type env struct {
	cfg     config
	ctx     context.Context
	build   string // .bench_build: where run.sh put the binaries and traces are written
	tmp     string // scratch directory under build, removed when the run ends
	eendd   string // path of the built daemon
	workers int    // sweep workers and daemon clients: 2, or 1 on a one-core box
}

// tempDir makes a fresh directory under the run's scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

// pick returns the full-scale or the smoke-scale value of a size parameter.
func pick[T any](e *env, full, smoke T) T {
	if e.cfg.smoke {
		return smoke
	}
	return full
}

// workload is one named set of inputs. Set-up builds an instance from the
// seed; the instance then runs sections, each one fixed unit of work whose
// inputs are a function of (seed, section index) alone.
type workload struct {
	name  string
	why   string
	op    string // what one op is, for the report
	setup func(e *env) (instance, error)
}

// instance is a set-up workload. run(i) performs section i and reports its
// timed region, op count and output digest; per-op latencies go to rec.
// Running the same index twice must give the same digest and exact
// counters: that is the determinism check every seed gets.
type instance interface {
	run(i int, rec *recorder) (section, error)
	close() error
}

// section is what one run(i) measured.
type section struct {
	wall   time.Duration     // the timed region only (digesting is outside it)
	ops    int               // ops attempted
	failed int               // ops that errored, were refused, or returned a wrong output
	digest string            // hash over the section's outputs, in a fixed order
	exact  map[string]uint64 // counters that must repeat bit-for-bit on a re-run
}

// procStats reads the allocation count and peak resident size of the
// process doing the work: the harness itself, or the eendd child.
type procStats interface {
	mallocs() (uint64, error)
	peakRSSMiB() (float64, error)
}

// recorder collects per-op latencies and, in a traced run, spans.
type recorder struct {
	mu     sync.Mutex
	lat    []float64 // ms
	tr     *tracer   // nil outside the traced phase
	parent int       // span the section's spans hang under
}

// op records one op that began at start and ends now, and returns how long
// it took. A named op is also a span when tracing.
func (r *recorder) op(name string, start time.Time) time.Duration {
	end := time.Now()
	r.mu.Lock()
	r.lat = append(r.lat, float64(end.Sub(start).Nanoseconds())/1e6)
	r.mu.Unlock()
	if name != "" {
		r.span(name, start, end)
	}
	return end.Sub(start)
}

// span records a finished span under the section's span when tracing.
func (r *recorder) span(name string, start, end time.Time) {
	if r.tr != nil {
		r.tr.add(name, r.parent, start, end)
	}
}

// selfStats measures the harness process.
type selfStats struct{}

func (selfStats) mallocs() (uint64, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, nil
}

func (selfStats) peakRSSMiB() (float64, error) { return vmHWM(os.Getpid()) }

// vmHWM reads a process's peak resident set size from /proc.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// Sizes of a run that do not depend on the workload.
const (
	setupReps   = 5 // set-ups per run; setup_s is their median
	goldenChain = 3 // sections 0..2 always run; their digests chain into the golden
)

// outcome is everything one run measured, before it is turned into metrics.
type outcome struct {
	setups   []float64 // s
	sections []section // timed sections, in order
	lat      []float64 // ms, every op of every timed section
	allocs   []float64 // per timed section: mallocs / ops
	kernel   []float64 // ms, the calibration kernel beside every set-up and section
	rssMiB   float64
	chain    string   // digest over sections 0..goldenChain-1
	problems []string // why the run is not correct; empty when it is
	layers   map[string]float64
}

// runWorkload sets the workload up, warms it, measures it for cfg.seconds
// and verifies its outputs. A traced run splits the time between an
// untraced phase, a traced phase and the workload's layer replay.
//
// Set-up is done setupReps times, each followed by section 0, untimed as an
// op but inside setup_s: the time from nothing to the first finished
// section, so that work a change moves into set-up, or leaves to run lazily
// on first use, shows. The repeats must agree on section 0's digest and
// exact counters; that is the determinism check every seed gets.
func runWorkload(e *env, w workload) (*outcome, error) {
	out := &outcome{}
	cal := newCalibrator()
	var inst instance
	var warm section
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		sec, err := inst.run(0, &recorder{})
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: section 0: %w", w.name, err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		out.kernel = append(out.kernel, cal.measure())
		if k == 0 {
			warm = sec
			continue
		}
		if sec.digest != warm.digest {
			out.problems = append(out.problems, "section 0 gave a different output digest when repeated")
		}
		for name, v := range warm.exact {
			if sec.exact[name] != v {
				out.problems = append(out.problems,
					fmt.Sprintf("exact counter %s did not repeat: %d then %d", name, v, sec.exact[name]))
			}
		}
	}
	defer inst.close()
	stats, ok := inst.(procStats)
	if !ok {
		stats = selfStats{}
	}
	chain := sha256.New()
	fmt.Fprintln(chain, warm.digest)
	if warm.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("section 0: %d of %d ops failed", warm.failed, warm.ops))
	}
	var err error

	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	next := 1
	timed := func(d time.Duration, rec *recorder) ([]section, []float64, error) {
		var secs []section
		var allocs []float64
		for start := time.Now(); time.Since(start) < d || next < goldenChain; {
			if rec.tr != nil {
				rec.tr.rep = next
				rec.parent = rec.tr.begin("section", 0)
			}
			m0, err := stats.mallocs()
			if err != nil {
				return nil, nil, err
			}
			sec, err := inst.run(next, rec)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: section %d: %w", w.name, next, err)
			}
			m1, err := stats.mallocs()
			if err != nil {
				return nil, nil, err
			}
			if rec.tr != nil {
				rec.tr.end(rec.parent)
			}
			if next < goldenChain {
				fmt.Fprintln(chain, sec.digest)
			}
			secs = append(secs, sec)
			allocs = append(allocs, float64(m1-m0)/float64(max(sec.ops, 1)))
			out.kernel = append(out.kernel, cal.measure())
			next++
		}
		return secs, allocs, nil
	}

	rec := &recorder{}
	if !e.cfg.trace {
		if out.sections, out.allocs, err = timed(budget, rec); err != nil {
			return nil, err
		}
	} else {
		plain, allocs, err := timed(budget/4, rec)
		if err != nil {
			return nil, err
		}
		out.sections, out.allocs = plain, allocs
		if out.layers, err = traceWorkload(e, w, inst, plain, budget/2, timed); err != nil {
			return nil, err
		}
	}
	out.lat = rec.lat
	out.chain = hex.EncodeToString(chain.Sum(nil))
	if out.rssMiB, err = stats.peakRSSMiB(); err != nil {
		return nil, err
	}

	if !e.cfg.smoke && e.cfg.seed == 1 {
		if want, ok := golden[w.name]; !ok {
			out.problems = append(out.problems, "no golden digest for this workload")
		} else if want != out.chain {
			out.problems = append(out.problems, fmt.Sprintf("golden digest mismatch: got %s", out.chain))
		}
	}
	return out, nil
}
