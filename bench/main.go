// Command eend-bench is the repository's end-to-end benchmark: six workloads
// through the system's real entry points (sweep.Runner, eend.Scenario.Run,
// opt.Problem.Search and Bound, a spawned eendd over loopback HTTP), gated
// end-to-end metrics from an untraced run and a per-layer ledger from a
// traced one. See README.md in this directory.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -workload all -seed 1 [-traced] [-runs n] [-out file.json]
//	bash bench/run.sh compare A.json B.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds, per workload, the digest chain of sections 0..2 at seed 1.
var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("golden.json: " + err.Error()) // embedded at build time
	}
	return m
}()

var workloads = []workload{
	{name: "paper-grid-cold", op: "one sweep of six stacks x two deployments (12 points) into an empty cache", setup: setupGridCold,
		why: "the paper's section 5 grid as users run it: routing, MAC and ODPM do the work, cache.Put and exec fan-out beside them"},
	{name: "paper-grid-warm", op: "one full pass over the warm grid", setup: setupGridWarm,
		why: "an unchanged grid re-run, all cache hits: grid expansion, scenario build, fingerprint, cache.Get and JSON decode are the whole cost"},
	{name: "field-1k", op: "one Scenario.Run on the 1000-node preset", setup: setupField,
		why: "one big run, no cache, no scheduler: phy and geom fan-out, carrier sense and the sim heap at depth dominate"},
	{name: "search-analytic", op: "one search step", setup: setupSearchAnalytic,
		why: "opt, internal/core and opt/bound do all the work and the simulator none: the mirror image of field-1k"},
	{name: "search-sim", op: "one search into an empty cache plus the same search again, warm", setup: setupSearchSim,
		why: "hundreds of short static-route runs, each paying scenario build, canonical encoding, memo and cache store"},
	{name: "daemon-mix", op: "one HTTP request (a sweep job counts from POST until done)", setup: setupDaemon,
		why: "the only path through cmd/eendd, dist, jobs and cache.Handler; simulations are tiny so HTTP and JSON are visible"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("eend-bench", flag.ContinueOnError)
	var cfg config
	var trace int
	var scale, out string
	var traced bool
	var runs int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "the only source of generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics")
	fs.StringVar(&scale, "scale", "full", "full, or smoke for the seconds-long test sizes")
	fs.StringVar(&cfg.report, "report", "", "write this run's full report to this file")
	fs.BoolVar(&cfg.probes, "probes", false, "traced run: also time the storm case this workload leaves out")
	fs.BoolVar(&traced, "traced", false, "with -workload all: add a traced run per workload")
	fs.IntVar(&runs, "runs", 1, "with -workload all: untraced runs per workload")
	fs.StringVar(&out, "out", "", "with -workload all: write the collected report here")
	contract := fs.Bool("print-contract", false, "print BENCHMARK.json as the catalogue defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *contract {
		return printContract()
	}
	cfg.trace = trace == 1
	switch scale {
	case "full":
	case "smoke":
		cfg.smoke = true
	default:
		fmt.Fprintf(os.Stderr, "eend-bench: unknown scale %q\n", scale)
		return 2
	}
	if cfg.workload == "all" {
		return allMain(cfg, traced, runs, out)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "eend-bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	rep, err := runOne(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eend-bench:", err)
		return 1
	}
	rep.print(os.Stdout)
	if cfg.report != "" {
		if err := writeJSON(cfg.report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "eend-bench:", err)
			return 1
		}
	}
	// The contract line: the last line of standard output.
	line, err := json.Marshal(rep.contract(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eend-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runSeconds is BENCHMARK.json's run_seconds: with five set-ups of about a
// second each, a run stays near 19 s, and the driver's 4 + 22 x 6 runs plus
// two builds near 2700 s of its 3420.
const runSeconds = 12

// printContract writes BENCHMARK.json from the catalogue, so the file and
// the harness cannot drift: `bash bench/run.sh -print-contract > BENCHMARK.json`.
func printContract() int {
	type named struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, named{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, named{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "eend-bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// buildDir is where run.sh put the binaries and where every file the
// benchmark writes goes: .bench_build under the checkout it is run from.
func buildDir() (string, error) {
	root, err := os.Getwd()
	return filepath.Join(root, ".bench_build"), err
}

// scratchDir makes a fresh directory under .bench_build/tmp.
func scratchDir(prefix string) (string, error) {
	build, err := buildDir()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join(build, "tmp"), prefix)
}

// runOne runs one workload in this process, inside a scratch directory that
// is removed whatever happens.
func runOne(cfg config, w workload) (*report, error) {
	build, err := buildDir()
	if err != nil {
		return nil, err
	}
	tmp, err := scratchDir("run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, ctx: context.Background(), build: build, tmp: tmp,
		eendd: filepath.Join(build, "bin", "eendd"), workers: min(2, runtime.NumCPU())}
	out, err := runWorkload(e, w)
	if err != nil {
		return nil, err
	}
	return newReport(e, w, out), nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle of the values (mean of the middle two).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// A ceiling that forgives rounding in p: 100*(n-10)/n must not land on rank n-9.
	rank := int(float64(len(s))*p/100+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
