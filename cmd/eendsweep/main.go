// Command eendsweep expands a declarative parameter grid into scenarios,
// runs them on a worker pool with a content-addressed result cache, and
// writes per-point results as CSV or JSON.
//
// Example:
//
//	eendsweep -cache ~/.cache/eend -workers 8 \
//	    -grid "nodes=10,20,50 seed=1..5 stack=titan-pc/odpm,dsr/odpm topology=uniform,cluster rate=2"
//
// The grid syntax is whitespace-separated name=v1,v2,... axes; integer
// spans may be written lo..hi. Axes: see eend/sweep.AxisNames (nodes,
// seed, field, stack, topology, workload, flows, rate, packet, dur, card,
// battery, bandwidth, replicates, heuristic). Re-running with an
// unchanged grid answers every point from the cache without simulating;
// widening one axis simulates only the new points. A replicates=N axis
// averages N seed-derived runs per point — cached per seed, so widening N
// re-uses the seeds already simulated — and adds mean/CI95 columns to the
// output. A heuristic axis (comm-first, joint, idle-first, greedy,
// anneal, restart) pins a static design produced by that method instead
// of running a reactive protocol, putting Section 4 designs and eend/opt
// searches in the same grid as the protocol stacks.
//
// -trace sweep.jsonl records the sweep's span tree — sweep, point,
// replicate and cache/sim leaves, plus shard spans for remote execution —
// as JSON lines; -profile cpu|mem captures a pprof profile into
// eendsweep.<mode>.pprof. Neither changes the sweep's results.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"eend/internal/cliobs"
	"eend/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eendsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out, errw io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("eendsweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	cf := cliobs.Bind(fs, "eendsweep")
	var (
		gridSpec = fs.String("grid", "", "grid spec, e.g. \"nodes=10,20 seed=1..5 stack=titan-pc/odpm\" (also taken from positional args)")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory (empty: no cache)")
		workers  = fs.Int("workers", 0, "concurrent simulations (<= 0: GOMAXPROCS); with -workers-remote, shards in flight")
		remote   = fs.String("workers-remote", "", "comma-separated eendd worker base URLs to run the sweep on (e.g. http://h1:8080,http://h2:8080)")
		format   = fs.String("format", "csv", "output format: csv|json")
		quiet    = fs.Bool("quiet", false, "suppress the progress line on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.Version(out) {
		return nil
	}
	spec := *gridSpec
	if rest := strings.Join(fs.Args(), " "); rest != "" {
		spec = strings.TrimSpace(spec + " " + rest)
	}
	if spec == "" {
		return fmt.Errorf("no grid given (use -grid or positional axes)")
	}
	g, err := sweep.ParseGrid(spec)
	if err != nil {
		return err
	}

	// The trace ID derives from the grid spec, matching eendd's sweep
	// jobs: the same grid always produces the same span identifiers.
	ob, err := cf.Start("sweep:" + spec)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ob.Close(); err == nil {
			err = cerr
		}
	}()

	hosts := strings.FieldsFunc(*remote, func(c rune) bool { return c == ',' || unicode.IsSpace(c) })
	r := sweep.Runner{Workers: *workers, CacheDir: *cacheDir, Remote: hosts, Trace: ob.Tracer()}
	if !*quiet && len(r.Remote) > 0 {
		r.OnRetry = func(worker string, err error) {
			fmt.Fprintf(errw, "\neendsweep: retrying shard after %s failed: %v\n", worker, err)
		}
	}
	if !*quiet {
		r.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(errw, "\reendsweep: %d/%d done, %d cached, %d errors",
				p.Done, p.Total, p.CacheHits, p.Errors)
		}
	}
	start := time.Now()
	results, prog, err := r.Run(ctx, g)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(errw, "\reendsweep: %d/%d done, %d cached, %d errors in %v\n",
			prog.Done, prog.Total, prog.CacheHits, prog.Errors, time.Since(start).Round(time.Millisecond))
	}

	switch *format {
	case "csv":
		w := csv.NewWriter(out)
		if err := w.Write(sweep.CSVHeader(g)); err != nil {
			return err
		}
		for _, sr := range results {
			if err := w.Write(sweep.CSVRow(g, sr)); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sweepOutput{Grid: g.Axes(), Progress: prog, Results: results}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q (want csv|json)", *format)
	}
	// A cancelled sweep still wrote whatever finished; tell the caller it
	// is partial.
	if ctx.Err() != nil && prog.Done < prog.Total {
		return fmt.Errorf("cancelled after %d of %d points", prog.Done, prog.Total)
	}
	return nil
}

// sweepOutput is the JSON envelope.
type sweepOutput struct {
	Grid     []sweep.Axis   `json:"grid"`
	Progress sweep.Progress `json:"progress"`
	Results  []sweep.Result `json:"results"`
}
