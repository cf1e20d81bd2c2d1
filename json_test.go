package eend_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"eend"
)

// smallRun produces one deterministic Results for serialization tests.
func smallRun(t *testing.T) *eend.Results {
	t.Helper()
	sc, err := eend.NewScenario(
		eend.WithSeed(3),
		eend.WithField(300, 300),
		eend.WithNodes(10),
		eend.WithStack(eend.DSR, eend.ODPM),
		eend.WithRandomFlows(2, 2048, 128),
		eend.WithDuration(40*time.Second),
		eend.WithBattery(50),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultsJSONRoundTrip(t *testing.T) {
	res := smallRun(t)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// The wire contract: stable snake_case field names.
	for _, field := range []string{
		`"stack"`, `"duration_ns"`, `"delivery_ratio"`, `"energy_goodput"`,
		`"tx_data_j"`, `"idle_j"`, `"rreq_sent"`, `"unicast_sent"`,
		`"per_node"`, `"final_mode"`, `"battery_j"`,
	} {
		if !strings.Contains(string(blob), field) {
			t.Errorf("results JSON missing field %s", field)
		}
	}
	var back eend.Results
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("results JSON does not round-trip byte-identically")
	}
	if back.Stack != res.Stack || back.Delivered != res.Delivered ||
		back.Lifetime == nil || back.Lifetime.BatteryJ != 50 ||
		len(back.PerNode) != 10 {
		t.Fatalf("round-tripped results lost data: %+v", back)
	}
}

func TestFigureJSONRoundTrip(t *testing.T) {
	fig, err := eend.RunExperiment(context.Background(), eend.Runner{Scale: eend.Quick}, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"id"`, `"title"`, `"xlabel"`, `"series"`, `"label"`, `"points"`, `"mean"`, `"ci95"`, `"values"`} {
		if !strings.Contains(string(blob), field) {
			t.Errorf("figure JSON missing field %s", field)
		}
	}
	var back eend.Figure
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("figure JSON does not round-trip byte-identically")
	}
	if len(back.Series) != len(fig.Series) {
		t.Fatalf("series count %d != %d", len(back.Series), len(fig.Series))
	}
	// Sample statistics must survive: compare a decoded series point.
	orig, dec := fig.Series[0], back.Series[0]
	if dec.Label != orig.Label {
		t.Fatalf("label %q != %q", dec.Label, orig.Label)
	}
	xs := orig.Xs()
	if len(xs) == 0 {
		t.Fatal("fig7 series has no points")
	}
	if got, want := dec.At(xs[0]).Mean(), orig.At(xs[0]).Mean(); got != want {
		t.Fatalf("mean at x=%g: %g != %g", xs[0], got, want)
	}
}
