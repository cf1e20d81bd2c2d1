// Command eendopt searches the design space of a deployment: it derives
// the formal design problem (weighted graph + demands) from a generated
// topology and workload, seeds a design with the paper's Section 4
// heuristics, and improves it with the eend/opt metaheuristics — greedy
// improvement, simulated annealing, or random-restart local search.
//
// Example:
//
//	eendopt -heuristic anneal                         # 20-node clustered topology, closed-form objective
//	eendopt -heuristic anneal -format csv             # accept/reject trajectory as CSV
//	eendopt -preset field-100 -heuristic restart      # constant-density preset instead of -nodes/-field/-topology
//	eendopt -heuristic anneal -objective sim -cache ~/.cache/eend -iterations 40
//
// The objective is -objective analytic (the closed-form Enetwork of Eq. 5)
// or sim (every candidate runs through the packet-level simulator with its
// routes pinned; results are deduplicated through the content-addressed
// cache, so a re-run with the same seeds against a warm cache performs
// zero new simulator invocations). -heuristic also accepts the plain
// Section 4 approaches (comm-first, joint, idle-first) for baseline runs.
//
// -trajectory records the accept/reject trajectory in the result (implied
// by -format csv). -trace search.jsonl records the search's span tree —
// the search root, per-candidate evaluate spans and the best-so-far
// timeline — as JSON lines; -profile cpu|mem captures a pprof profile
// into eendopt.<mode>.pprof. Neither changes the search's outcome.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode"

	"eend"
	"eend/internal/cliobs"
	"eend/opt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eendopt:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out, errw io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("eendopt", flag.ContinueOnError)
	fs.SetOutput(errw)
	cf := cliobs.Bind(fs, "eendopt")
	var (
		nodes     = fs.Int("nodes", 20, "node count")
		fieldSpec = fs.String("field", "600", "field side in meters, or WxH")
		topoName  = fs.String("topology", "cluster", fmt.Sprintf("topology generator: %v", eend.TopologyNames()))
		presetStr = fs.String("preset", "", "constant-density large-field preset: "+strings.Join(eend.FieldPresetNames(), "|")+" (sets -nodes, -field and -topology)")
		seed      = fs.Uint64("seed", 1, "scenario seed (placement, endpoints)")
		cardName  = fs.String("card", "cabletron", fmt.Sprintf("radio card: %v", eend.CardNames()))
		flows     = fs.Int("flows", 8, "CBR flow count (the demands)")
		rateKbps  = fs.Float64("rate", 2, "flow rate in Kbit/s")
		packet    = fs.Int("packet", 128, "packet size in bytes")
		dur       = fs.Duration("dur", 300*time.Second, "simulated horizon")

		method     = fs.String("heuristic", "anneal", fmt.Sprintf("design method: %v", opt.Methods()))
		objective  = fs.String("objective", "analytic", "objective: analytic|sim")
		iterations = fs.Int("iterations", 0, "objective evaluations (0: the algorithm default)")
		restarts   = fs.Int("restarts", 0, "restarts for -heuristic restart (0: default)")
		optSeed    = fs.Uint64("opt-seed", 1, "search seed (trajectory reproducibility)")
		boundName  = fs.String("bound", "lagrange", fmt.Sprintf("lower-bound oracle for gap tracking, -objective analytic only: none|%s", strings.Join(opt.BoundTiers(), "|")))
		replicates = fs.Int("replicates", 1, "simulations averaged per candidate (-objective sim)")
		cacheDir   = fs.String("cache", "", "content-addressed result cache directory (-objective sim)")
		remote     = fs.String("workers-remote", "", "comma-separated eendd worker base URLs to run candidate simulations on (-objective sim)")
		format     = fs.String("format", "text", "output format: text|json|csv")
		trajectory = fs.Bool("trajectory", false, "record the accept/reject trajectory (implied by -format csv)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *presetStr != "" {
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "field", "topology":
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-preset fixes the field and placement; drop -%s", conflict)
		}
	}
	if cf.Version(out) {
		return nil
	}
	card, err := eend.ParseCard(*cardName)
	if err != nil {
		return err
	}
	scOpts := []eend.Option{
		eend.WithSeed(*seed),
		eend.WithCard(card),
		eend.WithRandomFlows(*flows, *rateKbps*1024, *packet),
		eend.WithDuration(*dur),
	}
	if *presetStr != "" {
		fp, err := eend.ParseFieldPreset(*presetStr)
		if err != nil {
			return err
		}
		scOpts = append(scOpts, fp.Options()...)
	} else {
		topo, err := eend.ParseTopology(*topoName)
		if err != nil {
			return err
		}
		w, h, err := eend.ParseField(*fieldSpec)
		if err != nil {
			return err
		}
		scOpts = append(scOpts, eend.WithNodes(*nodes), eend.WithField(w, h), eend.WithTopology(topo))
	}

	sc, err := eend.NewScenario(scOpts...)
	if err != nil {
		return err
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		return err
	}

	start := time.Now()
	hosts := strings.FieldsFunc(*remote, func(c rune) bool { return c == ',' || unicode.IsSpace(c) })
	obj, br, err := p.Setup(*objective, *boundName, *optSeed,
		opt.SimConfig{CacheDir: *cacheDir, Remote: hosts, Replicates: *replicates})
	if err != nil {
		return err
	}

	// The trace ID matches eendd's optimize jobs: derived from the
	// scenario fingerprint, method, objective and search seed.
	ob, err := cf.Start(fmt.Sprintf("opt:%s/%s/%s/%d", sc.Fingerprint(), *method, *objective, *optSeed))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ob.Close(); err == nil {
			err = cerr
		}
	}()

	res, err := p.SearchMethod(ctx, *method, obj, opt.Options{
		Seed:       *optSeed,
		Iterations: *iterations,
		Restarts:   *restarts,
		Trace:      *trajectory || *format == "csv",
		Tracer:     ob.Tracer(),
	})
	if err != nil {
		return err
	}
	res.ApplyBound(br)
	elapsed := time.Since(start).Round(time.Millisecond)

	switch *format {
	case "text":
		return writeText(out, res, elapsed)
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case "csv":
		return writeCSV(out, res, br)
	default:
		return fmt.Errorf("unknown format %q (want text|json|csv)", *format)
	}
}

// writeText prints the human summary: baselines, outcome, improvement.
func writeText(out io.Writer, res *opt.Result, elapsed time.Duration) error {
	if len(res.Heuristics) > 0 {
		fmt.Fprintln(out, "Section 4 heuristics (closed-form Enetwork):")
		best := math.Inf(1)
		for _, e := range res.Heuristics {
			best = math.Min(best, e)
		}
		for _, name := range slices.Sorted(maps.Keys(res.Heuristics)) {
			marker := " "
			if res.Heuristics[name] == best {
				marker = "*"
			}
			fmt.Fprintf(out, "  %s %-11s %.3f\n", marker, name, res.Heuristics[name])
		}
	}
	fmt.Fprintf(out, "%s (%s objective): initial %.3f -> best %.3f", res.Algorithm, res.Objective, res.Initial, res.BestEnergy)
	if res.Initial > 0 {
		fmt.Fprintf(out, " (%.1f%% better)", 100*(res.Initial-res.BestEnergy)/res.Initial)
	}
	fmt.Fprintf(out, "\n%d iterations (%d accepted, %d rejected) in %v\n",
		res.Iterations, res.Accepted, res.Rejected, elapsed)
	if res.Sim != nil {
		fmt.Fprintf(out, "simulator: %d evaluations, %d cache hits, %d runs\n",
			res.Sim.Evals, res.Sim.CacheHits, res.Sim.SimRuns)
	}
	if res.Bound != nil {
		fmt.Fprintf(out, "lower bound (%s): %.3f", res.BoundTier, *res.Bound)
		switch {
		case res.GapCertified:
			fmt.Fprintf(out, ", gap 0%% (certified optimal)")
		case res.Gap != nil:
			fmt.Fprintf(out, ", gap %.2f%%", 100**res.Gap)
		default:
			fmt.Fprintf(out, ", gap unknown")
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "best design %s\n", res.BestFingerprint)
	for i, r := range res.BestRoutes {
		fmt.Fprintf(out, "  route %d: %v\n", i, r)
	}
	return nil
}

// writeCSV emits the trajectory, one row per step. The gap column tracks
// the best-so-far against the run's lower bound; it stays empty when no
// oracle ran or the ratio is undefined — never NaN or Inf.
func writeCSV(out io.Writer, res *opt.Result, br *opt.BoundResult) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"iter", "move", "energy", "best", "accepted", "temp", "gap"}); err != nil {
		return err
	}
	for _, s := range res.Trajectory {
		gapCell := ""
		if gap, _ := br.GapOf(s.Best); gap != nil {
			gapCell = strconv.FormatFloat(*gap, 'g', -1, 64)
		}
		if err := w.Write([]string{
			strconv.Itoa(s.Iter), s.Move,
			strconv.FormatFloat(s.Energy, 'g', -1, 64),
			strconv.FormatFloat(s.Best, 'g', -1, 64),
			strconv.FormatBool(s.Accepted),
			strconv.FormatFloat(s.Temp, 'g', -1, 64),
			gapCell,
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
