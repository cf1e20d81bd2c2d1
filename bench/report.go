package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// envBlock records where the numbers were taken.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    int    `json:"workers"`          // sweep workers and daemon clients
	Commit     string `json:"commit,omitempty"` // set by -workload all, in a git checkout
}

func currentEnv(workers int) envBlock {
	return envBlock{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Workers: workers}
}

// report is one run of one workload, in full. Metrics holds the gated
// end-to-end metrics and the report-only ones; a nil value prints as null.
type report struct {
	Workload  string              `json:"workload"`
	Op        string              `json:"op"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Scale     string              `json:"scale"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Problems  []string            `json:"problems,omitempty"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Sections  int                 `json:"sections"`
	Setups    []float64           `json:"setup_wall_s"`   // every set-up, in order, as timed
	Walls     []float64           `json:"section_wall_s"` // every timed section, in order, as timed
	Kernel    []float64           `json:"kernel_ms"`      // the calibration kernel after every set-up, then after every section
	Samples   int                 `json:"op_samples"`
	Metrics   map[string]*float64 `json:"metrics"`
	// MachineIndex is median calibration-kernel time / reference time: above
	// 1 the machine was slower than the reference. Every time in Metrics is
	// stated at the reference speed; Raw holds the gated ones as timed.
	MachineIndex float64            `json:"machine_index"`
	Raw          map[string]float64 `json:"raw"`
	TailGuide    struct {
		Percentile float64 `json:"percentile"`
		Ms         float64 `json:"ms"`
	} `json:"tail_guide"` // the highest percentile with ten samples beyond it, ungated
	Layers map[string]float64 `json:"layers,omitempty"`
	Exact  map[string]uint64  `json:"exact,omitempty"` // the first timed section's exact counters
	Digest string             `json:"digest"`
	Env    envBlock           `json:"env"`
}

func newReport(e *env, w workload, out *outcome) *report {
	r := &report{Workload: w.name, Op: w.op, Seed: e.cfg.seed, Seconds: e.cfg.seconds, Scale: e.cfg.scale(),
		Traced: e.cfg.trace, Problems: out.problems, Sections: len(out.sections), Samples: len(out.lat),
		Metrics: map[string]*float64{}, Layers: out.layers, Digest: out.chain, Env: currentEnv(e.workers)}
	var rates, walls []float64
	for _, s := range out.sections {
		r.Attempted += s.ops
		r.Failed += s.failed
		rates = append(rates, float64(s.ops)/s.wall.Seconds())
		walls = append(walls, s.wall.Seconds())
	}
	if len(out.sections) > 0 {
		r.Exact = out.sections[0].exact
	}
	if r.Failed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d of %d ops failed", r.Failed, r.Attempted))
	}
	r.Correct = len(r.Problems) == 0
	r.Setups, r.Walls, r.Kernel = out.setups, walls, out.kernel

	idx := median(out.kernel) / referenceKernelMs
	r.MachineIndex = idx
	r.Raw = map[string]float64{"setup_s": median(out.setups), "ops_per_s": median(rates), "op_p50_ms": median(out.lat)}
	set := func(name string, v float64) { r.Metrics[name] = &v }
	set("setup_s", median(out.setups)/idx)
	set("ops_per_s", median(rates)*idx)
	set("op_p50_ms", median(out.lat)/idx)
	set("allocs_per_op", median(out.allocs))
	set("peak_rss_mb", out.rssMiB)
	set("wall_s", median(walls)/idx)
	set("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.Metrics["op_tail_ms"] = nil
	switch n := len(out.lat); {
	case n >= 200:
		set("op_tail_ms", percentile(out.lat, 95)/idx)
	case n >= 100:
		set("op_tail_ms", percentile(out.lat, 90)/idx)
	}
	if n := len(out.lat); n > 10 {
		r.TailGuide.Percentile = 100 * float64(n-10) / float64(n)
		r.TailGuide.Ms = percentile(out.lat, r.TailGuide.Percentile) / idx
	}
	return r
}

// contractResult is the one-line JSON the driver reads.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract reduces the report to the driver's line: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one.
func (r *report) contract(traced bool) contractResult {
	c := contractResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	if traced {
		for _, d := range perLayer {
			c.Metrics[d.Name] = contractMetric{r.Layers[d.Name], d.Unit}
		}
		return c
	}
	for _, d := range endToEnd {
		c.Metrics[d.Name] = contractMetric{*r.Metrics[d.Name], d.Unit}
	}
	return c
}

// print lists every metric of the run by name, with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed=%d  seconds=%g  scale=%s  traced=%t\n", r.Workload, r.Seed, r.Seconds, r.Scale, r.Traced)
	fmt.Fprintf(w, "  op: %s\n  sections=%d  op samples=%d  attempted=%d  failed=%d  digest=%.16s\n",
		r.Op, r.Sections, r.Samples, r.Attempted, r.Failed, r.Digest)
	for _, d := range slices.Concat(endToEnd, reportOnly) {
		fmt.Fprintf(w, "  %-28s %s\n", d.Name, formatValue(r.Metrics[d.Name], d.Unit))
	}
	fmt.Fprintf(w, "  %-28s %.4g (times above are at reference speed; as timed: setup_s %.4g, ops_per_s %.5g, op_p50_ms %.5g)\n",
		"machine_index", r.MachineIndex, r.Raw["setup_s"], r.Raw["ops_per_s"], r.Raw["op_p50_ms"])
	if r.TailGuide.Percentile > 0 {
		fmt.Fprintf(w, "  %-28s p%.5g = %.4g ms (ten samples beyond it; ungated)\n", "tail_guide", r.TailGuide.Percentile, r.TailGuide.Ms)
	}
	if r.Traced {
		names := make([]string, 0, len(r.Layers))
		for name := range r.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		units := map[string]string{}
		for _, d := range slices.Concat(perLayer, probes) {
			units[d.Name] = d.Unit
		}
		for _, name := range names {
			if v := r.Layers[name]; v != 0 {
				fmt.Fprintf(w, "  %-28s %s\n", name, formatValue(&v, units[name]))
			}
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func formatValue(v *float64, unit string) string {
	if v == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g %s", *v, unit)
}

// collected is what `-workload all` writes and `compare` reads.
type collected struct {
	Env       envBlock                 `json:"env"`
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Runs   []*report `json:"runs"`             // untraced, one per -runs
	Traced *report   `json:"traced,omitempty"` // with -traced
}

// allMain runs every workload in a fresh process each (this binary again),
// prints the table, and exits non-zero if any run was not correct.
func allMain(cfg config, traced bool, runs int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eend-bench:", err)
		return 1
	}
	dir, err := scratchDir("reports-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "eend-bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	col := collected{Env: currentEnv(min(2, runtime.NumCPU())), Seed: cfg.seed, Seconds: cfg.seconds,
		Workloads: map[string]*workloadRuns{}}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		col.Env.Commit = strings.TrimSpace(string(out))
	}
	status := 0
	child := func(w workload, trace bool) *report {
		path := filepath.Join(dir, "report.json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-report", path, "-scale", cfg.scale()}
		if trace {
			args = append(args, "-trace", "1", "-probes")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "eend-bench: %s: %v\n", w.name, err)
			status = 1
		}
		var rep report
		if err := readJSON(path, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "eend-bench: %s: no report: %v\n", w.name, err)
			status = 1
			return nil
		}
		os.Remove(path)
		rep.print(os.Stdout)
		return &rep
	}
	for _, w := range workloads {
		wr := &workloadRuns{}
		col.Workloads[w.name] = wr
		for k := 0; k < runs; k++ {
			if rep := child(w, false); rep != nil {
				wr.Runs = append(wr.Runs, rep)
			}
		}
		if traced {
			wr.Traced = child(w, true)
			if wr.Traced != nil && len(wr.Runs) > 0 {
				// The whole-run overhead, beside the in-run trace.overhead_ratio.
				fmt.Printf("  %-28s %.4g (traced run ops_per_s / untraced run ops_per_s)\n", "trace.run_ratio",
					*wr.Traced.Metrics["ops_per_s"] / *wr.Runs[0].Metrics["ops_per_s"])
			}
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, col); err != nil {
			fmt.Fprintln(os.Stderr, "eend-bench:", err)
			return 1
		}
	}
	return status
}
