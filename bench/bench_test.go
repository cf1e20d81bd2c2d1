package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameCharset = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json's contract keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogue holds the metric catalogue to the benchmark contract's limits
// and BENCHMARK.json to the catalogue.
func TestCatalogue(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, d metricDef) {
		if !nameCharset.MatchString(d.Name) {
			t.Errorf("%s metric %q is outside the name charset", kind, d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Unit == "" || len(d.Unit) > 16 || d.Doc == "" {
			t.Errorf("%s: unit %q, doc %q", d.Name, d.Unit, d.Doc)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check("layer", d)
		// Every layer metric says which end-to-end metric it should move, and where.
		if d.Moves == "" {
			t.Errorf("%s declares no end-to-end metric and workload it should move", d.Name)
		}
	}
	for _, w := range workloads {
		if !nameCharset.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		if _, ok := golden[w.name]; !ok {
			t.Errorf("workload %q has no golden digest", w.name)
		}
	}

	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) || len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d layer metrics; the catalogue has %d, %d and %d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the catalogue has %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, the catalogue has %+v", i, got, d)
		}
	}
}

// smokeEendd builds the daemon where the harness looks for it.
func smokeEendd(t *testing.T) {
	t.Helper()
	build, err := buildDir()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "build", "-o", filepath.Join(build, "bin", "eendd"), "eend/cmd/eendd").CombinedOutput(); err != nil {
		t.Fatalf("building eendd: %v\n%s", err, out)
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks what the driver would read: the schema of the result line, that no
// end-to-end metric is zero, and that a traced run names every layer metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "daemon-mix" {
				if testing.Short() {
					t.Skip("spawns eendd")
				}
				smokeEendd(t)
			}
			for _, traced := range []bool{false, true} {
				rep, err := runOne(config{workload: w.name, seed: 7, seconds: 0.3, smoke: true, trace: traced}, w)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d problems=%v", traced, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				line, err := json.Marshal(rep.contract(traced))
				if err != nil {
					t.Fatal(err)
				}
				var got map[string]json.RawMessage
				if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
					t.Fatalf("result line %s: %v", line, err)
				}
				metrics := rep.contract(traced).Metrics
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics on the line, want %d", traced, len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%t: metric %s = %+v (present %t)", traced, d.Name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g", d.Name, m.Value)
					}
				}
				if traced && metrics["trace.overhead_ratio"].Value <= 0 {
					t.Errorf("trace.overhead_ratio = %g", metrics["trace.overhead_ratio"].Value)
				}
			}
		})
	}
	build, err := buildDir()
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(build, "tmp", "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestSeedIsTheOnlyInput pins input generation to the seed.
func TestSeedIsTheOnlyInput(t *testing.T) {
	a, err := generate(3, 1, 0, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(3, 1, 0, 60, 8)
	c, _ := generate(4, 1, 0, 60, 8)
	enc := func(r []request) string {
		s, _ := json.Marshal(len(r))
		return string(s) + string(r[0].body) + string(r[len(r)-1].body)
	}
	if enc(a) != enc(b) || enc(a) == enc(c) {
		t.Error("request lists: same seed must repeat, another seed must differ")
	}
	kinds := map[int]int{}
	for _, r := range a {
		kinds[r.kind]++
	}
	if kinds[reqScenario] == 0 || kinds[reqEvaluate] == 0 {
		t.Errorf("request mix %v lacks a kind", kinds)
	}
	if mix(1, 2, 3) != mix(1, 2, 3) || mix(1, 2, 3) == mix(1, 3, 2) {
		t.Error("mix is not a function of its path")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{100, 102, 98}, "same"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "better"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "better"},
		{lower, []float64{100, 130, 80}, []float64{101, 125, 85}, "unresolved"},
		{lower, []float64{100, 130, 98}, []float64{90, 95, 70}, "better"}, // wide, but every B beats every A
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quantile(ten, 0.25), quantile(ten, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; Python's are 2.75, 8.25", q1, q3)
	}
}

func TestCPUBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"eend/internal/phy.(*Medium).Transmit": "phy",
		"eend/internal/geom.Point.Dist":        "geom",
		"eend/opt.(*incEngine).reroute":        "opt",
		"eend/opt/bound.(*instance).solve":     "bound",
		"encoding/json.(*decodeState).object":  "json",
		"net/http.(*conn).serve":               "nethttp",
		"runtime.mallocgc":                     "gc",
		"runtime.gcBgMarkWorker":               "gc",
		"runtime.asyncPreempt":                 "",
		"math.archHypot":                       "",
		"gcWriteBarrier":                       "",
		"eend.(*Scenario).Run":                 "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
	m := parseExposition("# TYPE x counter\nx 3\ny{layer=\"mac\"} 1780\nh_bucket{le=\"1\"} 4\nh_sum 0.5\n")
	if m["x"] != 3 || m[`y{layer="mac"}`] != 1780 || m["h_sum"] != 0.5 || len(m) != 3 {
		t.Errorf("parseExposition = %v", m)
	}
}

// TestGuardRails: a workload that cannot find its daemon fails, not skips.
func TestGuardRails(t *testing.T) {
	e := &env{cfg: config{smoke: true}, eendd: filepath.Join(t.TempDir(), "no-such-eendd"), tmp: t.TempDir(), workers: 1}
	if _, err := setupDaemon(e); err == nil {
		t.Error("set-up without an eendd binary did not fail")
	}
	if p, err := freePort(); err != nil || p == 0 {
		t.Errorf("freePort = %d, %v", p, err)
	}
	if _, err := os.Stat("run.sh"); err != nil {
		t.Error(err)
	}
}
