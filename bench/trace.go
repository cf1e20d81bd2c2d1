package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"eend/internal/obs"
)

// span is one traced interval. Spans are recorded by the harness around its
// own calls into a layer's public functions; nothing inside the program is
// instrumented for them.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the trace began
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // 0: none
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"` // section index
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Parent: parent, Workload: t.workload, Rep: t.rep})
	return id
}

// begin opens a span that end closes; children name it as their parent.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Seconds()
	t.mu.Unlock()
}

// time runs f inside a span.
func (t *tracer) time(name string, parent int, f func()) {
	start := time.Now()
	f()
	t.add(name, parent, start, time.Now())
}

// durations lists, in ms, the spans of one name under one parent span
// (0: anywhere).
func (t *tracer) durations(name string, parent int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (parent == 0 || s.Parent == parent) {
			out = append(out, (s.End-s.Start)*1000)
		}
	}
	return out
}

// busy is the summed duration, in seconds, of the named spans under parent.
func (t *tracer) busy(name string, parent int) float64 {
	var sum float64
	for _, ms := range t.durations(name, parent) {
		sum += ms / 1000
	}
	return sum
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countedSection is the index of the one section a traced run performs
// between two readings of the counters. No timed section has it, so the
// work is the same for a given seed however long the run was, and a cache
// it fills is as cold as the first section found it.
const countedSection = 1 << 20

// layered is a workload that can replay the counted section step by step,
// calling each layer's public function itself inside a span, and fill in the
// layer metrics only it can know.
type layered interface {
	layers(tr *tracer, parent int, counted section, m map[string]float64) error
}

// remote is a workload whose work happens in a child process: counters and
// CPU samples are read from there.
type remote interface {
	metricsText() (string, error)
	cpuProfile(d time.Duration) ([]byte, error)
}

// traceWorkload is the traced half of a traced run: sections for d under a
// CPU profile with spans on, then the counted section between two readings
// of the counters, then the workload's own layer replay.
func traceWorkload(e *env, w workload, inst instance, plain []section, d time.Duration,
	timed func(time.Duration, *recorder) ([]section, []float64, error)) (map[string]float64, error) {
	m := map[string]float64{}
	tr := newTracer(w.name)
	rec := &recorder{tr: tr}

	counters := func() (map[string]float64, error) {
		var text string
		if r, ok := inst.(remote); ok {
			var err error
			if text, err = r.metricsText(); err != nil {
				return nil, err
			}
		} else {
			var b strings.Builder
			if err := obs.Default().WriteText(&b); err != nil {
				return nil, err
			}
			text = b.String()
		}
		return parseExposition(text), nil
	}

	// Phase one: sections under the CPU profile.
	var profile []byte
	var traced []section
	var err error
	if r, ok := inst.(remote); ok {
		var wg sync.WaitGroup
		var perr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			profile, perr = r.cpuProfile(d)
		}()
		traced, _, err = timed(d, rec)
		wg.Wait()
		if err == nil {
			err = perr
		}
	} else {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		traced, _, err = timed(d, rec)
		pprof.StopCPUProfile()
		profile = buf.Bytes()
	}
	if err != nil {
		return nil, err
	}
	perOp := func(secs []section) float64 {
		var v []float64
		for _, s := range secs {
			v = append(v, s.wall.Seconds()/float64(max(s.ops, 1)))
		}
		return median(v)
	}
	m["trace.overhead_ratio"] = perOp(traced) / perOp(plain)
	shares, err := cpuShares(profile, e.tmp)
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		m["cpu."+b+".share"] = shares[b]
	}

	// Phase two: the counted section. Every count below is of this one fixed
	// piece of work, so it repeats from run to run.
	before, err := counters()
	if err != nil {
		return nil, err
	}
	tr.rep = countedSection
	root := tr.begin("section", 0)
	crec := &recorder{tr: tr, parent: root}
	counted, err := inst.run(countedSection, crec)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	after, err := counters()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["sim.events"] = delta("eend_sim_events_total")
	for _, l := range []string{"mac", "routing", "power", "traffic", "phy"} {
		m["sim.timers."+l] = delta(`eend_sim_timers_total{layer="` + l + `"}`)
	}
	m["network.run.busy_s"] = delta("eend_sim_wall_seconds_total")
	m["sim.events_per_s"] = ratio(m["sim.events"], m["network.run.busy_s"])
	m["sim.virtual_s_per_wall_s"] = ratio(delta("eend_sim_speedup_ratio_sum"), delta("eend_sim_speedup_ratio_count"))
	m["exec.busy_s"] = delta("eend_exec_busy_seconds_total")
	m["exec.items"] = delta("eend_exec_items_total")
	m["exec.coalesced"] = delta("eend_exec_coalesced_total")
	m["exec.parallel_efficiency"] = ratio(m["exec.busy_s"], float64(e.workers)*counted.wall.Seconds())
	hits, misses := delta(`eend_cache_backend_hits_total{backend="disk"}`), delta(`eend_cache_backend_misses_total{backend="disk"}`)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.get.busy_s"] = delta(`eend_cache_op_seconds_sum{backend="disk",op="get"}`)
	m["cache.put.busy_s"] = delta(`eend_cache_op_seconds_sum{backend="disk",op="put"}`)
	acc, rej := delta(`eend_opt_steps_total{verdict="accepted"}`), delta(`eend_opt_steps_total{verdict="rejected"}`)
	m["opt.accept_ratio"] = ratio(acc, acc+rej)
	m["dist.evaluations"] = delta("eend_evaluations_total")

	// Exact counters the section itself reported.
	frames := float64(counted.exact["mac.frames"])
	m["mac.frames"] = frames
	m["mac.retry_ratio"] = ratio(float64(counted.exact["mac.retries"]), frames)
	m["phy.collisions_per_frame"] = ratio(float64(counted.exact["phy.collisions"]), frames)
	m["opt.evals"] = float64(counted.exact["opt.evals"])
	m["opt.sim_runs"] = float64(counted.exact["opt.sim_runs"])
	if evals := m["opt.evals"]; evals > 0 && counted.exact["opt.sim_runs"] > 0 {
		m["opt.memo_hit_ratio"] = 1 - m["opt.sim_runs"]/evals
	}
	m["opt.search.busy_s"] = tr.busy("opt.search", root)
	m["bound.lagrange.busy_s"] = tr.busy("bound.lagrange", root)
	if points := float64(counted.exact["points"]); points > 0 {
		m["sweep.points_per_s"] = points * float64(counted.ops) / counted.wall.Seconds()
	}

	if l, ok := inst.(layered); ok {
		if err := l.layers(tr, root, counted, m); err != nil {
			return nil, err
		}
	}
	if e.cfg.probes {
		if err := runProbes(e, w.name, m); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(e.build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return m, tr.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, e.cfg.seed)))
}

// parseExposition reads Prometheus text into name{labels} -> value. Histogram
// bucket lines are skipped; _sum and _count stay.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// bucketOf maps a function name to the layer its CPU time is charged to, or
// "" when it belongs to none.
func bucketOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch pkg {
	case "runtime":
		name := fn[slash+1+dot+1:]
		for _, p := range []string{"gc", "malloc", "scan", "mark", "sweep", "grey", "wbBuf", "bgsweep", "heapBits"} {
			if strings.Contains(name, p) {
				return "gc"
			}
		}
		return ""
	case "encoding/json":
		return "json"
	case "net/http", "net", "net/textproto":
		return "nethttp"
	case "eend/opt":
		return "opt"
	case "eend/opt/bound":
		return "bound"
	}
	if rest, ok := strings.CutPrefix(pkg, "eend/internal/"); ok {
		for _, b := range cpuBuckets {
			if rest == b {
				return b
			}
		}
	}
	return ""
}

// cpuShares attributes a CPU profile's samples to layers: each sample goes
// to the leaf-most frame that belongs to a known package, so math.Hypot
// under geom.Point.Dist is geom's time and an allocation under
// json.Marshal is the collector's. The stacks come from `go tool pprof
// -traces`; the shares of samples no known package claims are left out, so
// they sum to less than one.
func cpuShares(profile []byte, dir string) (map[string]float64, error) {
	shares := map[string]float64{}
	if len(profile) == 0 {
		return shares, nil
	}
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var total float64
	for _, block := range strings.Split(string(out), "-----------+-------------------------------------------------------\n")[1:] {
		var ms float64
		charged := false
		for k, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if k == 0 {
				v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
				if err != nil {
					return nil, fmt.Errorf("pprof trace header %q: %w", line, err)
				}
				ms, fields = v, fields[1:]
				total += ms
			}
			if b := bucketOf(fields[0]); b != "" && !charged {
				shares[b] += ms
				charged = true
			}
		}
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}
