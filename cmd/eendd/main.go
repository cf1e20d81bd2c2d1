// Command eendd serves the simulator over HTTP so remote callers can run
// scenarios and regenerate the paper's figures without a local toolchain.
//
// Usage:
//
//	eendd [-addr :8080] [-grace 15s] [-cache dir] [-retain n]
//	      [-peers host1,host2] [-state dir] [-pprof] [-version]
//
// Endpoints:
//
//	POST /v1/scenarios           run a scenario from a JSON body -> eend.Results JSON
//	GET  /v1/experiments         list experiment and ablation IDs
//	GET  /v1/experiments/{id}    regenerate a figure (?scale=quick|full) -> eend.Figure JSON
//	POST /v1/sweeps              start an async parameter sweep -> 202 + job JSON
//	GET  /v1/sweeps              list sweep jobs
//	GET  /v1/sweeps/{id}         live progress (SSE with Accept: text/event-stream)
//	GET  /v1/sweeps/{id}/trace   the finished sweep's span tree
//	DELETE /v1/sweeps/{id}       cancel a sweep
//	POST /v1/optimize            start an async design search -> 202 + job JSON
//	GET  /v1/optimize/{id}/trace the finished search's span tree
//	POST /v1/evaluate            run a batch of canonical scenarios (worker protocol)
//	GET  /v1/cache/{fp}          read a cached result by fingerprint
//	PUT  /v1/cache/{fp}          store a result under its fingerprint
//	GET  /metrics                Prometheus text counters
//	GET  /healthz                liveness probe
//
// Sweeps run asynchronously under the server's lifetime (poll them by id)
// and, with -cache, reuse the content-addressed result store across runs
// and restarts. With -peers, sweeps and searches shard across the listed
// daemons and the result cache is tiered over them, so a fleet shares one
// warm cache. With -state, the job journal survives restarts: jobs
// interrupted by a crash reappear as failed instead of vanishing.
//
// On SIGTERM/SIGINT the server stops accepting connections and gives
// in-flight simulations -grace to finish; runs still going after that are
// cancelled through their request contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"eend/internal/buildinfo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eendd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eendd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	grace := fs.Duration("grace", 15*time.Second, "shutdown grace period for in-flight runs")
	cacheDir := fs.String("cache", "", "content-addressed sweep result cache directory (empty: no cache)")
	retain := fs.Int("retain", 0, "finished async jobs retained per endpoint for polling (0: default 32)")
	peers := fs.String("peers", "", "comma-separated base URLs of peer eendd workers to shard sweeps/searches across")
	stateDir := fs.String("state", "", "job journal directory; replayed on restart (empty: jobs are in-memory only)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiling handlers under /debug/pprof/")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("eendd", buildinfo.Version())
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// baseCtx underlies every request context; cancelling it aborts
	// simulations that outlive the shutdown grace period.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	handler, err := newServerWith(baseCtx, serverConfig{
		cacheDir:   *cacheDir,
		retainJobs: *retain,
		peers:      strings.FieldsFunc(*peers, func(c rune) bool { return c == ',' || unicode.IsSpace(c) }),
		stateDir:   *stateDir,
		pprof:      *pprofOn,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "eendd: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "eendd: shutting down")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Grace expired: cancel in-flight simulations and close for real.
		cancelBase()
		err = srv.Close()
	}
	<-errc // drain ListenAndServe's http.ErrServerClosed
	return err
}
