package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestHeuristicAxisScenario: a heuristic point pins a static design whose
// routes are part of the scenario fingerprint, so designs produced by
// different methods content-address differently.
func TestHeuristicAxisScenario(t *testing.T) {
	g, err := ParseGrid("nodes=20 seed=1 topology=cluster field=600 flows=8 dur=40s heuristic=comm-first,idle-first,anneal")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{}
	for _, pt := range pts {
		sc, err := pt.Scenario()
		if err != nil {
			t.Fatalf("point %d: %v", pt.Index, err)
		}
		if got := sc.StackName(); !strings.HasPrefix(got, "Static") {
			t.Fatalf("heuristic point runs stack %q, want a Static stack", got)
		}
		if !strings.Contains(sc.Canonical(), "route=") {
			t.Fatalf("heuristic point's canonical encoding has no pinned routes")
		}
		fps[pt.Params["heuristic"]] = sc.Fingerprint()
	}
	if fps["comm-first"] == fps["idle-first"] {
		t.Fatal("comm-first and idle-first designs share a fingerprint (designs not pinned?)")
	}
	// Re-materializing the same point must reproduce the same design.
	again, err := pts[0].Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != fps[pts[0].Params["heuristic"]] {
		t.Fatal("re-materialized heuristic point fingerprints differently (search not deterministic?)")
	}
}

// TestHeuristicAxisConflictsWithStack: declaring both is a configuration
// error surfaced at Prepare time, not a runtime failure.
func TestHeuristicAxisConflictsWithStack(t *testing.T) {
	g, err := ParseGrid("nodes=12 stack=dsr/odpm heuristic=joint")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Runner{}).Prepare(g); err == nil {
		t.Fatal("Prepare accepted a grid with both stack and heuristic axes")
	}
}

// TestHeuristicAxisBadValue: unknown methods are rejected at parse time.
func TestHeuristicAxisBadValue(t *testing.T) {
	g, err := ParseGrid("nodes=12 heuristic=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Points(); err != nil {
		t.Fatal(err) // grid expansion is fine; the value fails at Scenario()
	}
	if _, err := (Runner{}).Prepare(g); err == nil {
		t.Fatal("Prepare accepted heuristic=nonsense")
	}
}

// TestHeuristicAxisCancellation: preparing a heuristic point runs a design
// search, which a cancelled context must abort — also for a Section 4
// method, whose single evaluation never looks at the context itself.
func TestHeuristicAxisCancellation(t *testing.T) {
	for _, method := range []string{"anneal", "idle-first"} {
		g, err := ParseGrid("nodes=20 seed=1 topology=cluster field=600 flows=8 heuristic=" + method)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := (Runner{}).PrepareContext(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("heuristic=%s: PrepareContext under a cancelled context returned %v", method, err)
		}
	}
}

// TestHeuristicAxisRuns simulates a tiny designed point end to end.
func TestHeuristicAxisRuns(t *testing.T) {
	g, err := ParseGrid("nodes=10 seed=3 topology=cluster field=400 flows=2 dur=40s heuristic=idle-first")
	if err != nil {
		t.Fatal(err)
	}
	results, prog, err := (Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Errors != 0 || len(results) != 1 {
		t.Fatalf("progress %+v, results %d", prog, len(results))
	}
	res := results[0].Results
	if res == nil || res.Sent == 0 {
		t.Fatalf("designed point sent no traffic: %+v", res)
	}
	if !strings.HasPrefix(res.Stack, "Static") {
		t.Fatalf("designed point ran %q", res.Stack)
	}
}

// TestHeuristicAxisQuality: preparing a designed grid certifies every
// point — design energy, lower bound, gap — and the certificate orders the
// methods soundly (bound ≤ every design energy; a worse heuristic never
// certifies while reporting a larger energy than a certified one).
func TestHeuristicAxisQuality(t *testing.T) {
	g, err := ParseGrid("nodes=20 seed=1 topology=cluster field=600 flows=8 dur=40s heuristic=comm-first,anneal")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := (Runner{}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range prep.results {
		q := sr.Quality
		if q == nil {
			t.Fatalf("point %d: designed point has no quality certificate", sr.Point.Index)
		}
		if q.Method != sr.Point.Params["heuristic"] {
			t.Fatalf("point %d: quality method %q, axis %q", sr.Point.Index, q.Method, sr.Point.Params["heuristic"])
		}
		if q.Bound <= 0 || q.Bound > q.Energy*(1+1e-9) {
			t.Fatalf("point %d: bound %g not in (0, energy=%g]", sr.Point.Index, q.Bound, q.Energy)
		}
		if q.Tier != "lagrange" {
			t.Fatalf("point %d: tier %q", sr.Point.Index, q.Tier)
		}
		if q.Gap == nil {
			t.Fatalf("point %d: gap undefined for positive bound", sr.Point.Index)
		}
	}
}

// TestQualityCSVColumns: the quality columns appear exactly when the grid
// declares a heuristic axis, and an undefined gap renders empty rather
// than NaN/Inf.
func TestQualityCSVColumns(t *testing.T) {
	plain, err := ParseGrid("nodes=10 seed=3 dur=40s")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range CSVHeader(plain) {
		if col == "gap" || col == "design_energy" {
			t.Fatalf("plain grid header has quality column %q", col)
		}
	}

	g, err := ParseGrid("nodes=10 seed=3 topology=cluster field=400 flows=2 dur=40s heuristic=idle-first")
	if err != nil {
		t.Fatal(err)
	}
	header := CSVHeader(g)
	want := []string{"design_energy", "bound", "gap", "gap_certified"}
	if got := header[len(header)-len(want):]; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("heuristic grid header tail %v, want %v", got, want)
	}
	prep, err := (Runner{}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	sr := prep.results[0]
	row := CSVRow(g, sr)
	if len(row) != len(header) {
		t.Fatalf("row has %d cells, header %d", len(row), len(header))
	}
	cells := map[string]string{}
	for i, col := range header {
		cells[col] = row[i]
	}
	for _, col := range want {
		if cells[col] == "" && col != "gap" {
			t.Fatalf("column %q empty on a designed point: %v", col, row)
		}
	}
	for col, v := range cells {
		if strings.Contains(v, "NaN") || strings.Contains(v, "Inf") {
			t.Fatalf("column %q leaked %q", col, v)
		}
	}
	// A certificate-free row (plain grids never have one; simulate an
	// errored designed point) keeps the column count and stays empty.
	bare := CSVRow(g, Result{Point: sr.Point})
	if len(bare) != len(header) {
		t.Fatalf("bare row has %d cells, header %d", len(bare), len(header))
	}
	if tail := bare[len(bare)-4:]; strings.Join(tail, "") != "" {
		t.Fatalf("bare row quality tail not empty: %v", tail)
	}
}
