// Command benchjson is the zero-allocation gate over `go test -bench
// -benchmem` text output (read from stdin): it keeps each benchmark's
// allocs/op and B/op — the two columns that are exact — writes them as a
// stable JSON document (BENCH_kernel.json, BENCH_exec.json), and with
// -assert-zero-allocs name1,name2 exits non-zero unless every named
// benchmark is present with allocs/op == 0. Speed is not its business:
// ns/op from a handful of iterations is noise, and speed claims come from
// paired bench/ runs.
//
//	go test -run=- -bench . -benchmem -benchtime=100000x ./internal/sim | go run ./tools/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Measurements is the allocation half of one benchmark's result line.
type Measurements struct {
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// procSuffix strips the trailing GOMAXPROCS marker ("-8") go test appends
// to benchmark names, so keys stay stable across runner shapes.
var procSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and returns every benchmark that
// reports allocs/op (run with -benchmem or b.ReportAllocs); when a name
// repeats, the last run wins.
func Parse(r io.Reader) (map[string]Measurements, error) {
	out := make(map[string]Measurements)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// Name, iterations, then (value, unit) pairs.
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var m Measurements
		measured := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
				measured = true
			}
		}
		if measured {
			out[procSuffix.ReplaceAllString(fields[0], "")] = m
		}
	}
	return out, sc.Err()
}

// AssertZeroAllocs verifies each named benchmark was measured with
// allocs/op == 0. A missing benchmark fails too: a renamed or skipped
// bench must not silently pass the gate.
func AssertZeroAllocs(benches map[string]Measurements, names []string) error {
	for _, name := range names {
		m, ok := benches[name]
		switch {
		case !ok:
			return fmt.Errorf("benchmark %s has no allocs/op in the input (renamed, skipped, or run without -benchmem)", name)
		case m.AllocsPerOp != 0:
			return fmt.Errorf("benchmark %s allocates: %g allocs/op, want 0", name, m.AllocsPerOp)
		}
	}
	return nil
}

func main() {
	zeroAllocs := flag.String("assert-zero-allocs", "",
		"comma-separated benchmark names that must report 0 allocs/op")
	flag.Parse()
	benches, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *zeroAllocs != "" {
		if err := AssertZeroAllocs(benches, strings.Split(*zeroAllocs, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"benchmarks": benches}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
