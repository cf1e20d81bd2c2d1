package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"eend"
	"eend/opt"
	"eend/sweep"
)

// certificate is what every entry point says about one (instance, method):
// the design it chose and the chain design → energy → bound → gap, compared
// by bit pattern.
type certificate struct {
	design              string // a fingerprint; see each reader for which
	energy, bound, gap  uint64
	gapDefined, optimal bool
}

func certificateOf(design string, energy, bound float64, gap *float64, certified bool) certificate {
	c := certificate{design: design, energy: math.Float64bits(energy), bound: math.Float64bits(bound), optimal: certified}
	if gap != nil {
		c.gap, c.gapDefined = math.Float64bits(*gap), true
	}
	return c
}

func resultCertificate(t *testing.T, res *opt.Result) certificate {
	t.Helper()
	if res == nil || res.Bound == nil {
		t.Fatalf("result carries no bound: %+v", res)
	}
	return certificateOf(res.BestFingerprint, res.BestEnergy, *res.Bound, res.Gap, res.GapCertified)
}

// searchAndCertify is the library road: opt.SearchMethod under the analytic
// objective, then the Lagrangian bound folded in.
func searchAndCertify(t *testing.T, p *opt.Problem, method string) *opt.Result {
	t.Helper()
	res, err := p.SearchMethod(context.Background(), method, p.Analytic(), opt.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	br, err := p.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.ApplyBound(br)
	return res
}

// optimizeOverHTTP runs one /v1/optimize job to its final snapshot and
// returns it raw (for the golden) and decoded.
func optimizeOverHTTP(t *testing.T, method, flows string) ([]byte, optStatus) {
	t.Helper()
	h := newServer(context.Background(), t.TempDir())
	body := fmt.Sprintf(`{"scenario": {"seed": 1, "nodes": 20, "topology": "cluster",
		"field": {"width": 600, "height": 600}, "duration": "300s", %s},
		"heuristic": %q, "opt_seed": 1, "workers": 1}`, flows, method)
	w := post(t, h, "/v1/optimize", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	st := waitOptDone(t, h, "opt-1")
	if st.Status != "done" {
		t.Fatalf("%s: final status %q (%s)", method, st.Status, st.Error)
	}
	// The snapshot after the poll that saw "done" is final too.
	return get(t, h, "/v1/optimize/opt-1").Body.Bytes(), st
}

var createdField = regexp.MustCompile(`"created": "[^"]*"`)

// TestMethodsAgreeAcrossEntryPoints is the cross-entry-point differential:
// for each of the six methods on the 20-node clustered instance at seed 1,
// every surface that can state the instance reports the same design and the
// same float64 bits of energy, bound and gap. eendopt and the sweep draw
// their flows from different streams (WithRandomFlows against WithWorkload),
// so "default-20" is two instances, each read through every surface that can
// state it — /v1/optimize and opt.SearchMethod state both:
//
//	eendopt's draw: eendopt -format json (its golden, which cmd/eendopt pins
//	                to its own output), /v1/optimize, opt.SearchMethod
//	sweep's draw:   the heuristic= axis' Quality, /v1/optimize with the
//	                flows given explicitly, opt.SearchMethod
//
// The final /v1/optimize snapshots of eendopt's draw are also compared byte
// for byte (timestamp aside) with testdata/optimize, captured at 948c89b.
func TestMethodsAgreeAcrossEntryPoints(t *testing.T) {
	common := []eend.Option{
		eend.WithSeed(1), eend.WithNodes(20), eend.WithField(600, 600),
		eend.WithTopology(eend.ClusterTopology(0, 0)), eend.WithDuration(300 * time.Second),
	}
	problem := func(flows eend.Option) *opt.Problem {
		t.Helper()
		sc, err := eend.NewScenario(append(common[:len(common):len(common)], flows)...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.FromScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	drawnByEendopt := problem(eend.WithRandomFlows(8, 2*1024, 128))
	drawnBySweep := problem(eend.WithWorkload(eend.NewWorkload(eend.WorkloadCBR, 8, 2*1024, 128)))
	sweepFlows, err := json.Marshal(drawnBySweep.Scenario.Flows())
	if err != nil {
		t.Fatal(err)
	}

	g, err := sweep.ParseGrid("nodes=20 seed=1 topology=cluster field=600 flows=8 dur=300s heuristic=comm-first,joint,idle-first,greedy,anneal,restart")
	if err != nil {
		t.Fatal(err)
	}
	points, prog, err := sweep.Runner{Workers: 1}.Run(context.Background(), g)
	if err != nil || prog.Errors != 0 || len(points) != len(opt.Methods()) {
		t.Fatalf("sweep: %v, progress %+v, %d points", err, prog, len(points))
	}

	for i, method := range opt.Methods() {
		t.Run(method, func(t *testing.T) {
			// eendopt's draw.
			want := resultCertificate(t, searchAndCertify(t, drawnByEendopt, method))
			data, err := os.ReadFile(filepath.Join("..", "eendopt", "testdata", "methods", method+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var cli opt.Result
			if err := json.Unmarshal(data, &cli); err != nil {
				t.Fatal(err)
			}
			if got := resultCertificate(t, &cli); got != want {
				t.Errorf("eendopt -format json says %+v, opt.SearchMethod %+v", got, want)
			}
			raw, st := optimizeOverHTTP(t, method, `"random_flows": {"count": 8, "rate_bps": 2048, "packet_bytes": 128}`)
			if got := resultCertificate(t, st.Result); got != want {
				t.Errorf("/v1/optimize says %+v, opt.SearchMethod %+v", got, want)
			}
			snapshot := createdField.ReplaceAll(raw, []byte(`"created": "-"`))
			golden, err := os.ReadFile(filepath.Join("testdata", "optimize", method+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot, golden) {
				t.Errorf("final /v1/optimize snapshot differs from testdata/optimize/%s.json:\n%s", method, snapshot)
			}

			// The sweep's draw. Quality names no design; the point's scenario
			// fingerprint covers the deployment and the pinned design, so
			// that is the design column here.
			res := searchAndCertify(t, drawnBySweep, method)
			pinned, err := drawnBySweep.PinnedScenario(res.Best, 1)
			if err != nil {
				t.Fatal(err)
			}
			want = resultCertificate(t, res)
			_, st = optimizeOverHTTP(t, method, `"flows": `+string(sweepFlows))
			if got := resultCertificate(t, st.Result); got != want {
				t.Errorf("sweep's draw: /v1/optimize says %+v, opt.SearchMethod %+v", got, want)
			}
			want.design = pinned.Fingerprint()
			sr := points[i]
			if q := sr.Quality; q == nil || q.Method != method || q.Tier != "lagrange" {
				t.Fatalf("sweep point %d: quality %+v", i, q)
			} else if got := certificateOf(sr.Fingerprint, q.Energy, q.Bound, q.Gap, q.GapCertified); got != want {
				t.Errorf("sweep heuristic=%s says %+v, opt.SearchMethod %+v", method, got, want)
			}
		})
	}
}
