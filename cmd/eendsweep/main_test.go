package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eend/internal/obs"
)

const tinyGrid = "nodes=5,7 seed=1 field=200 dur=25s flows=1 rate=2"

func TestRunCSV(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-grid", tinyGrid}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 points
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][1] != "nodes" || rows[1][1] != "5" || rows[2][1] != "7" {
		t.Fatalf("unexpected CSV layout: %v / %v", rows[0], rows[1])
	}
	if !strings.Contains(errw.String(), "2/2 done") {
		t.Fatalf("progress missing from stderr: %q", errw.String())
	}
}

func TestRunJSONAndCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var out1, errw bytes.Buffer
	args := []string{"-grid", tinyGrid, "-format", "json", "-cache", dir, "-quiet"}
	if err := run(context.Background(), &out1, &errw, args); err != nil {
		t.Fatal(err)
	}
	var first sweepOutput
	if err := json.Unmarshal(out1.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Progress.CacheHits != 0 || len(first.Results) != 2 {
		t.Fatalf("first run = %+v", first.Progress)
	}
	if errw.Len() != 0 {
		t.Fatalf("-quiet wrote to stderr: %q", errw.String())
	}

	var out2 bytes.Buffer
	if err := run(context.Background(), &out2, &errw, args); err != nil {
		t.Fatal(err)
	}
	var second sweepOutput
	if err := json.Unmarshal(out2.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Progress.CacheHits != 2 {
		t.Fatalf("re-run cache hits = %d, want 2", second.Progress.CacheHits)
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Fatalf("point %d not cached on re-run", i)
		}
		if second.Results[i].Fingerprint != first.Results[i].Fingerprint {
			t.Fatalf("fingerprint %d changed across processes' worth of runs", i)
		}
	}
}

func TestRunPositionalGrid(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(context.Background(), &out, &errw, []string{"-quiet", "nodes=5", "seed=1", "field=200", "dur=25s", "flows=1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fingerprint") {
		t.Fatal("positional grid produced no CSV header")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw bytes.Buffer
	cases := map[string][]string{
		"no grid":        {"-quiet"},
		"bad grid":       {"-grid", "antennas=3"},
		"bad format":     {"-grid", tinyGrid, "-format", "yaml"},
		"bad axis value": {"-grid", "nodes=ten"},
	}
	for name, args := range cases {
		if err := run(context.Background(), &out, &errw, args); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// TestRunTraceFile: -trace writes a JSONL span file whose tree reaches
// from one sweep root through the points down to sim leaves, without
// changing the sweep's output.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	var out, errw bytes.Buffer
	args := []string{"-grid", tinyGrid, "-format", "json", "-quiet", "-trace", path}
	if err := run(context.Background(), &out, &errw, args); err != nil {
		t.Fatal(err)
	}
	var res sweepOutput
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(res.Results))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]obs.Event{}
	names := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		byID[ev.Span] = ev
		names[ev.Name]++
	}
	if names["sweep"] != 1 || names["point"] != 2 || names["sim"] != 2 {
		t.Fatalf("span census %v, want 1 sweep / 2 points / 2 sims", names)
	}
	for _, ev := range byID {
		if ev.Name != "sim" {
			continue
		}
		point, ok := byID[ev.Parent]
		if !ok || point.Name != "replicate" {
			t.Fatalf("sim span %s not parented under a replicate", ev.Span)
		}
	}
}

// TestRunVersion: -version prints the build identity and skips the sweep.
func TestRunVersion(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, []string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "eendsweep ") || strings.TrimSpace(out.String()) == "eendsweep" {
		t.Fatalf("version output = %q", out.String())
	}
}

// TestHeuristicAxisCSVGolden pins the CSV of a heuristic axis over all six
// design methods on the 20-node clustered instance, byte for byte: design
// energy, bound, gap and certification beside what the pinned design
// measured in the simulator. Captured at 948c89b, when the sweep still
// assembled the certificate by hand.
func TestHeuristicAxisCSVGolden(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-quiet", "-workers", "1", "-format", "csv", "-grid",
		"nodes=20 seed=1 topology=cluster field=600 flows=8 dur=300s heuristic=comm-first,joint,idle-first,greedy,anneal,restart"}
	if err := run(context.Background(), &out, &errw, args); err != nil {
		t.Fatalf("%v\n%s", err, errw.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "heuristic-default-20.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("heuristic-axis CSV differs from testdata/heuristic-default-20.csv:\n%s", out.String())
	}
}
