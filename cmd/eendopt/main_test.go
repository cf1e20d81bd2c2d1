package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"eend/opt"
)

// TestDefaultAnnealBeatsSection4 is the acceptance criterion on the CLI
// surface: bare `eendopt -heuristic anneal` (the defaults: 20-node
// clustered topology) must find a design with strictly lower Enetwork than
// the best Section 4 heuristic.
func TestDefaultAnnealBeatsSection4(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-heuristic", "anneal", "-format", "json"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	var res opt.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, e := range res.Heuristics {
		best = math.Min(best, e)
	}
	if !(res.BestEnergy < best) {
		t.Fatalf("anneal best %g not strictly below best Section 4 heuristic %g", res.BestEnergy, best)
	}
	if res.BestFingerprint == "" || len(res.BestRoutes) == 0 {
		t.Fatalf("result lacks the winning design: %+v", res)
	}
}

func TestTextOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-heuristic", "greedy"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	for _, want := range []string{"Section 4 heuristics", "greedy (analytic objective)", "best design"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("text output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestCSVTrajectory(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw,
		[]string{"-heuristic", "anneal", "-iterations", "50", "-format", "csv"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "iter,move,energy,best,accepted,temp,gap" {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("trajectory has %d rows, want ~50", len(lines)-1)
	}
	// The default Lagrangian oracle ran: every row's gap cell must be a
	// finite number (never NaN/Inf), and gaps never increase — best-so-far
	// is monotone against a fixed bound.
	prev := math.Inf(1)
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		gapCell := cells[len(cells)-1]
		if gapCell == "" {
			t.Fatalf("row %q has no gap despite the default bound", line)
		}
		gap, err := strconv.ParseFloat(gapCell, 64)
		if err != nil || math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Fatalf("row %q has bad gap %q (%v)", line, gapCell, err)
		}
		if gap > prev {
			t.Fatalf("gap increased to %g on row %q", gap, line)
		}
		prev = gap
	}
}

// TestBoundDisabled: -bound none omits bound and gap everywhere.
func TestBoundDisabled(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw,
		[]string{"-heuristic", "greedy", "-bound", "none", "-format", "json"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	var res opt.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Bound != nil || res.Gap != nil || res.BoundTier != "" {
		t.Fatalf("-bound none still reported bound/gap: %+v", res)
	}
}

// TestBoundTextOutput: the text summary reports the lower bound and gap.
// On the default instance the Lagrangian bound certifies the annealed
// design optimal, so the certified form is the expected rendering.
func TestBoundTextOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-heuristic", "anneal"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "lower bound (lagrange):") {
		t.Fatalf("text output lacks the bound line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "gap") {
		t.Fatalf("text output lacks a gap report:\n%s", out.String())
	}
}

// TestBoundJSON: the default run carries bound, gap and certification in
// its JSON result, and the annealed design's gap meets the 15% acceptance
// ceiling on the default instance.
func TestBoundJSON(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-heuristic", "anneal", "-format", "json"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	var res opt.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Bound == nil || res.BoundTier != "lagrange" {
		t.Fatalf("default run lacks the Lagrangian bound: %+v", res)
	}
	if res.Gap == nil || *res.Gap > 0.15 {
		t.Fatalf("gap %v exceeds the 15%% acceptance ceiling", res.Gap)
	}
}

// TestBaselineMethod: a plain Section 4 approach runs as a single
// evaluation with the baselines attached.
func TestBaselineMethod(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-heuristic", "idle-first", "-format", "json"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	var res opt.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "idle-first" || res.Iterations != 1 {
		t.Fatalf("baseline run reported %+v", res)
	}
	if res.BestEnergy != res.Heuristics["idle-first"] {
		t.Fatalf("idle-first scored %g, baseline map says %g", res.BestEnergy, res.Heuristics["idle-first"])
	}
}

// TestSimObjectiveCLI exercises the simulator-in-the-loop path end to end
// with a tiny instance, twice, proving the warm re-run touches the
// simulator zero times.
func TestSimObjectiveCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-nodes", "10", "-field", "400", "-flows", "2", "-dur", "40s",
		"-topology", "cluster", "-seed", "3",
		"-heuristic", "anneal", "-iterations", "8",
		"-objective", "sim", "-cache", dir, "-format", "json",
	}
	parse := func() opt.Result {
		var out, errw bytes.Buffer
		if err := run(context.Background(), &out, &errw, args); err != nil {
			t.Fatalf("%v\n%s", err, errw.String())
		}
		var res opt.Result
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := parse()
	if cold.Sim == nil || cold.Sim.SimRuns == 0 {
		t.Fatalf("cold run reported no simulations: %+v", cold.Sim)
	}
	warm := parse()
	if warm.Sim == nil || warm.Sim.SimRuns != 0 {
		t.Fatalf("warm re-run performed %+v simulations, want 0", warm.Sim)
	}
	if warm.BestFingerprint != cold.BestFingerprint {
		t.Fatal("warm re-run found a different design")
	}
}

// TestSimObjectiveHasNoBound: the Lagrangian bound certifies Eq. 5, not
// simulated joules, so a -objective sim search reports no bound and no gap
// in any format, whatever -bound says.
func TestSimObjectiveHasNoBound(t *testing.T) {
	args := []string{
		"-nodes", "10", "-field", "400", "-flows", "2", "-dur", "40s", "-seed", "3",
		"-heuristic", "anneal", "-iterations", "4", "-objective", "sim", "-cache", t.TempDir(),
	}
	outputs := map[string]string{}
	for _, format := range []string{"text", "json", "csv"} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), &out, &errw, append(args, "-format", format)); err != nil {
			t.Fatalf("%s: %v\n%s", format, err, errw.String())
		}
		outputs[format] = out.String()
	}
	if strings.Contains(outputs["text"], "lower bound") || strings.Contains(outputs["text"], "gap") {
		t.Errorf("text output reports a bound:\n%s", outputs["text"])
	}
	for _, field := range []string{`"bound"`, `"bound_tier"`, `"gap"`, `"gap_certified"`} {
		if strings.Contains(outputs["json"], field) {
			t.Errorf("JSON output carries %s:\n%s", field, outputs["json"])
		}
	}
	lines := strings.Split(strings.TrimSpace(outputs["csv"]), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has no trajectory rows:\n%s", outputs["csv"])
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",") {
			t.Errorf("CSV row %q has a gap cell", line)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"objective": {"-objective", "nope"},
		"heuristic": {"-heuristic", "nope"},
		"format":    {"-heuristic", "greedy", "-format", "nope"},
		"topology":  {"-topology", "nope"},
		"card":      {"-card", "nope"},
		"field":     {"-field", "abc"},
	} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), &out, &errw, args); err == nil {
			t.Errorf("%s: bad flag accepted", name)
		}
	}
}

// TestNegativeReplicates: a negative -replicates is refused the way eendsim
// refuses it, not run as a single simulation.
func TestNegativeReplicates(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(context.Background(), &out, &errw, []string{"-objective", "sim", "-replicates", "-2",
		"-nodes", "8", "-flows", "1", "-dur", "5s", "-iterations", "2", "-bound", "none"})
	if err == nil || !strings.Contains(err.Error(), "replicate count -2 is not positive") {
		t.Fatalf("-replicates -2: err = %v, want the replicate count refused", err)
	}
}

// TestPresetFlag drives the constant-density preset path: -preset stands in
// for -nodes/-field/-topology, and mixing them is an error.
func TestPresetFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw,
		[]string{"-preset", "field-100", "-heuristic", "greedy", "-iterations", "30", "-format", "json"}); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	var res opt.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.BestFingerprint == "" || len(res.BestRoutes) == 0 {
		t.Fatalf("preset run produced no design: %+v", res)
	}

	for conflict, value := range map[string]string{
		"-nodes": "30", "-field": "500", "-topology": "cluster",
	} {
		var out, errw bytes.Buffer
		err := run(context.Background(), &out, &errw,
			[]string{"-preset", "field-100", conflict, value})
		if err == nil || !strings.Contains(err.Error(), "-preset fixes") {
			t.Errorf("%s alongside -preset: got %v, want conflict error", conflict, err)
		}
	}

	if err := run(context.Background(), &out, &errw, []string{"-preset", "nope"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestMethodOutputsGolden pins what the default run prints for each of the
// six methods, byte for byte, in both machine formats. The files under
// testdata/methods were captured at 948c89b, when the Section 4 methods
// still filled their Result on a road of their own; cmd/eendd's
// cross-entry-point differential reads the JSON ones as "what eendopt says".
func TestMethodOutputsGolden(t *testing.T) {
	for _, method := range opt.Methods() {
		for _, format := range []string{"json", "csv"} {
			var out, errw bytes.Buffer
			if err := run(context.Background(), &out, &errw, []string{"-heuristic", method, "-format", format}); err != nil {
				t.Fatalf("%s/%s: %v\n%s", method, format, err, errw.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "methods", method+"."+format))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("eendopt -heuristic %s -format %s differs from testdata/methods/%s.%s:\n%s",
					method, format, method, format, out.String())
			}
		}
	}
}
