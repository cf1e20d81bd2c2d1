package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"eend"
	"eend/internal/cache"
)

// Request kinds of the daemon mix, and the span names they are traced under.
const (
	reqScenario = iota
	reqEvaluate
	reqCacheGet
	reqCachePut
	reqSweep
)

var routeNames = [...]string{"http.scenarios", "http.evaluate", "http.cache_get", "http.cache_put", "http.sweep_job"}

// request is one generated HTTP request of a client's list.
type request struct {
	kind int
	body []byte   // scenarios, evaluate and sweeps: the JSON to POST
	key  string   // cache get/put: the fingerprint
	src  int      // cache put: index of the earlier scenarios request whose reply is stored
	want []string // evaluate: the fingerprints the reply must carry, in order
}

// Sizes of the small scenarios the daemon simulates: small enough that HTTP,
// JSON and per-request scenario build are visible beside the simulator.
const (
	mixNodes    = 20
	mixField    = 400.0
	mixDuration = 30 * time.Second
	mixFlows    = 3
	mixRate     = 2048.0
	batchSize   = 8  // scenarios per evaluate request
	sweepPoints = 12 // points per sweep job
)

func mixScenario(seed uint64) (*eend.Scenario, error) {
	return eend.NewScenario(eend.WithSeed(seed), eend.WithNodes(mixNodes), eend.WithField(mixField, mixField),
		eend.WithDuration(mixDuration), eend.WithRandomFlows(mixFlows, mixRate, 128))
}

func mixScenarioBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"seed":%d,"nodes":%d,"field":{"width":%g,"height":%g},"duration":%q,"random_flows":{"count":%d,"rate_bps":%g}}`,
		seed, mixNodes, mixField, mixField, mixDuration.String(), mixFlows, mixRate))
}

// generate builds client c's request list for section i: 70 % scenarios with
// unique seeds, 20 % evaluate batches drawn from the client's working set,
// 9 % cache reads and writes, 1 % sweep jobs. Reads only name keys the same
// client stored earlier in the list, so every reply is a function of the
// list alone and not of how the two clients interleave.
func generate(seed uint64, i, c, n, workingSet int) ([]request, error) {
	rng := rand.New(rand.NewPCG(mix(seed, 6, uint64(i), uint64(c)), 1))
	type member struct{ canonical, fp string }
	set := make([]member, workingSet)
	for k := range set {
		sc, err := mixScenario(rng.Uint64())
		if err != nil {
			return nil, err
		}
		set[k] = member{sc.Canonical(), sc.Fingerprint()}
	}
	var reqs []request
	var stored []string // keys this client has written by now
	var scen []int      // indices of the scenarios requests so far
	seeds := map[int]uint64{}
	scenario := func() {
		s := rng.Uint64()
		seeds[len(reqs)] = s
		scen = append(scen, len(reqs))
		reqs = append(reqs, request{kind: reqScenario, body: mixScenarioBody(s)})
	}
	for len(reqs) < n {
		switch r := rng.Float64(); {
		case r < 0.01:
			lo := rng.Uint64N(1_000_000_000)
			reqs = append(reqs, request{kind: reqSweep, body: []byte(fmt.Sprintf(
				`{"grid":"nodes=%d field=%g dur=%s flows=%d rate=2 seed=%d..%d"}`,
				mixNodes, mixField, mixDuration, mixFlows, lo, lo+sweepPoints-1))})
		case r < 0.10 && len(stored) > 0 && rng.IntN(2) == 0:
			reqs = append(reqs, request{kind: reqCacheGet, key: stored[rng.IntN(len(stored))]})
		case r < 0.10 && len(scen) > 0:
			src := scen[rng.IntN(len(scen))]
			sc, err := mixScenario(seeds[src])
			if err != nil {
				return nil, err
			}
			stored = append(stored, sc.Fingerprint())
			reqs = append(reqs, request{kind: reqCachePut, key: sc.Fingerprint(), src: src})
		case r >= 0.10 && r < 0.30:
			var batch struct {
				Scenarios []string `json:"scenarios"`
			}
			var want []string
			for k := 0; k < batchSize; k++ {
				m := set[rng.IntN(len(set))]
				batch.Scenarios = append(batch.Scenarios, m.canonical)
				want = append(want, m.fp)
				stored = append(stored, m.fp)
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{kind: reqEvaluate, body: body, want: want})
		default:
			scenario()
		}
	}
	return reqs, nil
}

// daemon is daemon-mix: a spawned eendd and closed-loop clients, one
// keep-alive connection each, replaying generated request lists.
type daemon struct {
	e          *env
	cmd        *exec.Cmd
	stderr     *bytes.Buffer
	base       string
	clients    int
	perClient  int // requests per client per section
	workingSet int
	hc         []*http.Client

	mu          sync.Mutex
	inflightMax float64 // traced runs: highest eend_jobs_inflight seen
}

// freePort picks a loopback port by binding port 0 and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func setupDaemon(e *env) (instance, error) {
	if _, err := os.Stat(e.eendd); err != nil {
		return nil, fmt.Errorf("eendd is not built (%w); run the benchmark through bench/run.sh", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("daemon-cache")
	if err != nil {
		return nil, err
	}
	d := &daemon{e: e, stderr: &bytes.Buffer{}, base: fmt.Sprintf("http://127.0.0.1:%d", port),
		clients: e.workers, perClient: pick(e, 200, 40), workingSet: pick(e, 128, 16)}
	d.cmd = exec.Command(e.eendd, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-cache", dir, "-pprof", "-grace", "2s")
	d.cmd.Stderr = d.stderr
	// The child must not outlive a harness that is killed before close runs.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	for c := 0; c < d.clients; c++ {
		d.hc = append(d.hc, &http.Client{Timeout: 60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	// An eendd that is not healthy within ten seconds is a failure, not a skip.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.hc[0].Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("eendd not healthy after 10 s: %v\n%s", err, d.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the child and waits for it; SIGKILL follows a SIGTERM that is
// not obeyed within the daemon's own grace period.
func (d *daemon) close() error {
	for _, hc := range d.hc {
		hc.CloseIdleConnections()
	}
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.cmd.Process = nil
	return nil
}

func (d *daemon) get(c int, path string) ([]byte, error) {
	resp, err := d.hc[c].Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

func (d *daemon) post(c int, path string, body []byte, wantStatus int) ([]byte, error) {
	resp, err := d.hc[c].Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != wantStatus {
		err = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, out)
	}
	return out, err
}

var mallocsLine = regexp.MustCompile(`(?m)^# Mallocs = (\d+)$`)

// mallocs reads the child's cumulative allocation count from its heap profile.
func (d *daemon) mallocs() (uint64, error) {
	body, err := d.get(0, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := mallocsLine.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("no Mallocs line in the daemon's heap profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

func (d *daemon) peakRSSMiB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// metricsText and cpuProfile let a traced run read the child's counters and
// CPU samples instead of the harness's own.
func (d *daemon) metricsText() (string, error) {
	body, err := d.get(0, "/metrics")
	return string(body), err
}

func (d *daemon) cpuProfile(dur time.Duration) ([]byte, error) {
	hc := &http.Client{} // its own connection: the clients' are busy replaying
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, max(1, int(dur.Seconds()))))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (d *daemon) run(i int, rec *recorder) (section, error) {
	lists := make([][]request, d.clients)
	for c := range lists {
		var err error
		if lists[c], err = generate(d.e.cfg.seed, i, c, d.perClient, d.workingSet); err != nil {
			return section{}, err
		}
	}
	digests := make([]string, d.clients)
	failed := make([]int, d.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[c], failed[c] = d.replay(c, lists[c], rec)
		}()
	}
	wg.Wait()
	sec := section{wall: time.Since(t0), ops: d.clients * d.perClient, exact: map[string]uint64{}}
	h := sha256.New()
	for c := range lists {
		fmt.Fprintln(h, digests[c])
		sec.failed += failed[c]
	}
	sec.digest = hex.EncodeToString(h.Sum(nil))
	return sec, nil
}

// replay sends one client's list in order, each request after the previous
// reply, and returns the digest of the replies and how many were wrong.
func (d *daemon) replay(c int, reqs []request, rec *recorder) (string, int) {
	remote := cache.NewRemote(d.base, d.hc[c])
	replies := map[int][]byte{} // scenarios replies a later cache put stores
	needed := map[int]bool{}
	for _, r := range reqs {
		if r.kind == reqCachePut {
			needed[r.src] = true
		}
	}
	h := sha256.New()
	failed := 0
	for j, r := range reqs {
		t0 := time.Now()
		var out []byte
		var err error
		switch r.kind {
		case reqScenario:
			out, err = d.post(c, "/v1/scenarios", r.body, http.StatusOK)
			if needed[j] {
				replies[j] = out
			}
		case reqEvaluate:
			out, err = d.post(c, "/v1/evaluate", r.body, http.StatusOK)
		case reqCacheGet:
			var ok bool
			if out, ok, err = remote.Get(r.key); err == nil && !ok {
				err = fmt.Errorf("cache get %s: miss on a key this client stored", r.key)
			}
		case reqCachePut:
			err = remote.Put(r.key, replies[r.src])
		case reqSweep:
			out, err = d.sweepJob(c, r.body, rec.tr != nil)
		}
		rec.op(routeNames[r.kind], t0)
		if err == nil && r.kind == reqEvaluate {
			out, err = evaluateDigest(out, r.want)
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "daemon-mix:", err)
			continue
		}
		sum := sha256.Sum256(out)
		fmt.Fprintln(h, r.kind, hex.EncodeToString(sum[:]))
	}
	return hex.EncodeToString(h.Sum(nil)), failed
}

// evaluateDigest checks an evaluate reply against the fingerprints asked for
// and reduces it to what must repeat: whether a result was cached depends on
// what ran before, so only fingerprints and Results fingerprints count.
func evaluateDigest(body []byte, want []string) ([]byte, error) {
	var reply struct {
		Results []struct {
			Fingerprint string        `json:"fingerprint"`
			Results     *eend.Results `json:"results"`
			Error       string        `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("evaluate reply: %w", err)
	}
	if len(reply.Results) != len(want) {
		return nil, fmt.Errorf("evaluate reply has %d results, want %d", len(reply.Results), len(want))
	}
	var out bytes.Buffer
	for k, r := range reply.Results {
		if r.Error != "" || r.Results == nil || r.Fingerprint != want[k] {
			return nil, fmt.Errorf("evaluate result %d: fingerprint %s, error %q", k, r.Fingerprint, r.Error)
		}
		fmt.Fprintln(&out, r.Fingerprint, r.Results.Fingerprint())
	}
	return out.Bytes(), nil
}

// sweepJob posts a sweep and polls it until it leaves "running". The op is
// the whole job. A traced run also samples the in-flight gauge while polling.
func (d *daemon) sweepJob(c int, body []byte, sample bool) ([]byte, error) {
	out, err := d.post(c, "/v1/sweeps", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var job struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Progress struct {
			Total  int `json:"total"`
			Done   int `json:"done"`
			Errors int `json:"errors"`
		} `json:"progress"`
		Results []struct {
			Point struct {
				Index int `json:"index"`
			} `json:"point"`
			Fingerprint string        `json:"fingerprint"`
			Results     *eend.Results `json:"results"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &job); err != nil {
		return nil, fmt.Errorf("sweep reply: %w", err)
	}
	id := job.ID
	for job.Status == "running" {
		time.Sleep(2 * time.Millisecond)
		if sample {
			d.sampleInflight(c)
		}
		if out, err = d.get(c, "/v1/sweeps/"+id); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(out, &job); err != nil {
			return nil, fmt.Errorf("sweep status: %w", err)
		}
	}
	if job.Status != "done" || job.Progress.Errors != 0 || len(job.Results) != sweepPoints {
		return nil, fmt.Errorf("sweep %s: status %s, %d results, %d errors", id, job.Status, len(job.Results), job.Progress.Errors)
	}
	sort.Slice(job.Results, func(a, b int) bool { return job.Results[a].Point.Index < job.Results[b].Point.Index })
	var digest bytes.Buffer
	for _, r := range job.Results {
		if r.Results == nil {
			return nil, fmt.Errorf("sweep %s: point %d has no results", id, r.Point.Index)
		}
		fmt.Fprintln(&digest, r.Fingerprint, r.Results.Fingerprint())
	}
	return digest.Bytes(), nil
}

func (d *daemon) sampleInflight(c int) {
	body, err := d.get(c, "/metrics")
	if err != nil {
		return
	}
	v := parseExposition(string(body))[`eend_jobs_inflight{kind="sweep"}`]
	d.mu.Lock()
	d.inflightMax = max(d.inflightMax, v)
	d.mu.Unlock()
}
