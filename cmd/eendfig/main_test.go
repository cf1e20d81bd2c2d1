package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eend"
)

var bg = context.Background()

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run(bg, &out, []string{"-fig", "table1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Radio parameters") {
		t.Fatalf("unexpected table1 output: %q", out.String())
	}
}

func TestRunFig7WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(bg, os.Stdout, []string{"-fig", "fig7", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7.csv")); err != nil {
		t.Fatalf("fig7.csv not written: %v", err)
	}
}

func TestRunFormatJSONRoundTrips(t *testing.T) {
	var out bytes.Buffer
	if err := run(bg, &out, []string{"-fig", "fig7", "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	var figures []*eend.Figure
	if err := json.Unmarshal(out.Bytes(), &figures); err != nil {
		t.Fatalf("output is not valid figure JSON: %v", err)
	}
	if len(figures) != 1 || figures[0].ID != "fig7" {
		t.Fatalf("figures = %+v, want one fig7", figures)
	}
	if len(figures[0].Series) != 6 {
		t.Fatalf("fig7 decoded with %d series, want 6", len(figures[0].Series))
	}
	again, err := json.Marshal(figures)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, out.Bytes()); err != nil {
		t.Fatal(err)
	}
	if string(again) != compact.String() {
		t.Fatal("figure JSON does not round-trip byte-identically")
	}
}

func TestRunFormatCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run(bg, &out, []string{"-fig", "fig7", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# fig7") || !strings.Contains(out.String(), "R/B") {
		t.Fatalf("unexpected CSV output: %.120q", out.String())
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run(bg, os.Stdout, []string{"-scale", "bogus"}); err == nil {
		t.Fatal("bad scale should fail")
	}
}

func TestRunRejectsBadFigure(t *testing.T) {
	if err := run(bg, os.Stdout, []string{"-fig", "fig99"}); err == nil {
		t.Fatal("bad figure id should fail")
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	if err := run(bg, os.Stdout, []string{"-format", "xml"}); err == nil {
		t.Fatal("bad format should fail")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if err := run(ctx, os.Stdout, []string{"-fig", "fig8"}); err == nil {
		t.Fatal("cancelled context should abort the run with an error")
	}
}

// TestGoldenFigures pins, byte for byte, what `-fig all` and `-fig
// ablations` write at quick scale: the reproduction's headline output. The
// digests were captured on go1.24 linux/amd64 from the per-figure functions
// the experiment catalogue replaced, and hold at any GOMAXPROCS. If a change
// legitimately moves a figure (a model fix, a new series), recapture them
// and say so in the commit; if only the harness changed, a mismatch is a bug.
func TestGoldenFigures(t *testing.T) {
	for fig, want := range map[string]string{
		"all":       "bf9df63168b364df519e3b74869b9be3b8bbc2a045c0fb619cd33c63c468bf44",
		"ablations": "a9915fd44dadd45e6083028b57507fad690db4719ed9300a1d7a495dabb3f9cb",
	} {
		var out bytes.Buffer
		if err := run(bg, &out, []string{"-fig", fig, "-scale", "quick", "-format", "json"}); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("-fig %s: sha256 = %s, want %s", fig, got, want)
		}
	}
}
