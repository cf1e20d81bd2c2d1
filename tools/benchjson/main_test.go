package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: eend/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleFire-4   	  100000	        21.24 ns/op	       0 B/op	       0 allocs/op
BenchmarkDeepHeap-4       	  100000	        73.35 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationODPMKeepAlive/5s-10s-4 	       1	  36144116 ns/op	      9165 bit/J
PASS
ok  	eend/internal/sim	0.021s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// The bit/J line carries no allocs/op: it is not an allocation row.
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if sf, ok := got["BenchmarkScheduleFire"]; !ok || sf != (Measurements{}) {
		t.Fatalf("ScheduleFire = %+v (found %v), want 0 B/op and 0 allocs/op under the name without its proc suffix", sf, ok)
	}
	hot, err := Parse(strings.NewReader(
		"BenchmarkRestartSearchSim/workers=4-2   	  3	  23592431 ns/op	  287.3 best_J	  5713797 B/op	  125683 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m := hot["BenchmarkRestartSearchSim/workers=4"]; m.BytesPerOp != 5713797 || m.AllocsPerOp != 125683 {
		t.Fatalf("sub-benchmark with a custom metric = %+v in %v", m, hot)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	got, err := Parse(strings.NewReader("BenchmarkBroken abc def\nnot a bench line\nBenchmarkNoFields\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("garbage parsed as benchmarks: %v", got)
	}
}

func TestAssertZeroAllocs(t *testing.T) {
	benches, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := AssertZeroAllocs(benches, []string{"BenchmarkScheduleFire", "BenchmarkDeepHeap"}); err != nil {
		t.Fatalf("zero-alloc benchmarks rejected: %v", err)
	}
	// Missing benchmark: the gate must not silently pass.
	if err := AssertZeroAllocs(benches, []string{"BenchmarkGone"}); err == nil {
		t.Fatal("missing benchmark passed the gate")
	}
	// No -benchmem columns (the bit/J line has no allocs/op).
	if err := AssertZeroAllocs(benches, []string{"BenchmarkAblationODPMKeepAlive/5s-10s"}); err == nil {
		t.Fatal("benchmark without allocs/op passed the gate")
	}
	// A real allocation count fails.
	allocing, err := Parse(strings.NewReader(
		"BenchmarkHot-4   	  1000	  50.0 ns/op	  16 B/op	  2 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := AssertZeroAllocs(allocing, []string{"BenchmarkHot"}); err == nil {
		t.Fatal("allocating benchmark passed the gate")
	}
}
