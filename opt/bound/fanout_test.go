package bound_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eend"
	"eend/internal/exec"
	"eend/opt"
	"eend/opt/bound"
)

// The process-wide scheduler is sized at its first use. Size it here, at
// the binary's GOMAXPROCS, before `go test -cpu 1,2` lowers GOMAXPROCS for
// the first run: otherwise every later run would fan its shares out over a
// one-worker pool.
var _ = exec.Default()

func problem(tb testing.TB, opts ...eend.Option) *opt.Problem {
	tb.Helper()
	sc, err := eend.NewScenario(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestFingerprintAtAnyGOMAXPROCS: the Lagrangian tier's Result — value,
// floors, surrogate and full trace — is bit-identical however many workers
// price the demands. At GOMAXPROCS 1 every pass runs inline; at 2 and 4 it
// fans out with demand i on worker i mod W.
func TestFingerprintAtAnyGOMAXPROCS(t *testing.T) {
	preset, err := eend.ParseFieldPreset("field-1k")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *opt.Problem
	}{
		{"nodes=400", problem(t, eend.WithSeed(4), eend.WithNodes(400), eend.WithField(2000, 2000),
			eend.WithTopology(eend.UniformTopology()), eend.WithRandomFlows(30, 2048, 128))},
		{"field-1k", problem(t, append(preset.Options(), eend.WithSeed(1),
			eend.WithRandomFlows(40, 4096, 128), eend.WithDuration(60*time.Second))...)},
	}
	for _, c := range cases {
		var want *opt.BoundResult
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			got, err := c.p.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: 1, Iterations: 20, Trace: true})
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: GOMAXPROCS %d gave value %016x comb %016x, GOMAXPROCS 1 %016x %016x",
					c.name, procs, math.Float64bits(got.Value), math.Float64bits(got.Combinatorial),
					math.Float64bits(want.Value), math.Float64bits(want.Combinatorial))
			}
		}
	}
}

// TestGuidedTraceMatchesUnguidedField1k: on the benchmark's field-1k
// instance (40 flows), the guided passes give the trace the unguided passes
// gave, pinned here by its fingerprint, at the benchmark's 20 iterations and
// at the default 150.
func TestGuidedTraceMatchesUnguidedField1k(t *testing.T) {
	preset, err := eend.ParseFieldPreset("field-1k")
	if err != nil {
		t.Fatal(err)
	}
	p := problem(t, append(preset.Options(), eend.WithSeed(1),
		eend.WithRandomFlows(40, 4096, 128), eend.WithDuration(60*time.Second))...)
	for _, c := range []struct {
		iters int
		want  string
	}{
		{20, "b13355cfc37c520b4ef8fe4bac86f1a6da6d7097ba530c588f334e16c9e12468"},
		{150, "b38444e105f558b6dd302fa02bacbb2b424382a1609e0c34ea2b8d417dabcb6e"},
	} {
		r, err := bound.Compute(p.Graph, p.Demands, bound.Options{Tier: bound.Lagrangian, Eval: p.Eval, Seed: 1, Iterations: c.iters, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Fingerprint(); got != c.want {
			t.Errorf("%d iterations: bound %.17g after %d iterations, trace fingerprint\n got %s\nwant %s",
				c.iters, r.Value, r.Iterations, got, c.want)
		}
	}
}

// TestProblemBoundRejectsBadWeights: Problem.Bound inherits Compute's
// check on the evaluation weights.
func TestProblemBoundRejectsBadWeights(t *testing.T) {
	p := problem(t, eend.WithSeed(1), eend.WithNodes(12), eend.WithField(300, 300),
		eend.WithTopology(eend.UniformTopology()), eend.WithRandomFlows(3, 2048, 128))
	for _, e := range []opt.EvalConfig{{TIdle: -1, TData: 1}, {TIdle: 1, TData: math.NaN()}} {
		if _, err := p.Bound(opt.BoundOptions{Eval: e}); err == nil {
			t.Errorf("eval %+v: want an error", e)
		}
	}
}
