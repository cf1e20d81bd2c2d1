package eend

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// canonicalScenarios builds a spread of scenarios covering every canonical
// encoding branch: placement kinds, explicit and random flows, stack
// modifiers, static routes, replicates, battery, bandwidth.
func canonicalScenarios(t testing.TB) map[string]*Scenario {
	t.Helper()
	topo, err := ParseTopology("cluster")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opts ...Option) *Scenario {
		t.Helper()
		sc, err := NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	return map[string]*Scenario{
		"defaults": mk(),
		"uniform random flows": mk(
			WithSeed(7), WithNodes(12), WithField(300, 200),
			WithRandomFlows(3, 2048, 128),
			WithDuration(45*time.Second),
		),
		"grid placement": mk(
			WithGrid(3, 4),
			WithStack(DSR, AlwaysActive),
			WithFlows(Flow{ID: 1, Src: 0, Dst: 11, Rate: 1024, PacketBytes: 64}),
		),
		"pinned positions": mk(
			WithPositions(Point{X: 0, Y: 0}, Point{X: 123.456, Y: 7.5}, Point{X: 400, Y: 399.999}),
			WithStack(DSDV, ODPM, Span(), StackLabel("custom label, with comma")),
			WithFlows(Flow{ID: 1, Src: 0, Dst: 2, Rate: 2048, PacketBytes: 128,
				StartMin: 20 * time.Second, StartMax: 25 * time.Second, Stop: 90 * time.Second}),
			WithDuration(120*time.Second),
		),
		"topology replicates battery": mk(
			WithSeed(3), WithNodes(10), WithField(600, 600), WithTopology(topo),
			WithCard(Mica2), WithBandwidth(1e6), WithBattery(50),
			WithRandomFlows(2, 2048, 128), WithReplicates(4),
			WithDuration(60*time.Second),
		),
		"static routes perfect sleep": mk(
			WithPositions(Point{X: 0, Y: 0}, Point{X: 100, Y: 0}, Point{X: 200, Y: 0}),
			WithStack(StaticRoutes([]int{0, 1, 2}, []int{2, 1, 0}), ODPM,
				PowerControl(), PerfectSleep(), ODPMTimeouts(2*time.Second, 4*time.Second)),
			WithFlows(Flow{ID: 1, Src: 0, Dst: 2, Rate: 2048, PacketBytes: 128}),
			WithDuration(30*time.Second),
		),
	}
}

// TestParseCanonicalRoundTrip is the worker protocol's core guarantee: for
// any facade-built scenario, ParseCanonical(sc.Canonical()) reconstructs a
// scenario with a byte-identical encoding and therefore the same
// fingerprint — a remote worker simulates exactly what the coordinator
// fingerprinted.
func TestParseCanonicalRoundTrip(t *testing.T) {
	for name, sc := range canonicalScenarios(t) {
		t.Run(name, func(t *testing.T) {
			text := sc.Canonical()
			got, err := ParseCanonical(text)
			if err != nil {
				t.Fatalf("ParseCanonical: %v", err)
			}
			if got.Canonical() != text {
				t.Errorf("round trip diverged:\n--- original\n%s\n--- reparsed\n%s", text, got.Canonical())
			}
			if got.Fingerprint() != sc.Fingerprint() {
				t.Errorf("fingerprint %s != %s", got.Fingerprint(), sc.Fingerprint())
			}
			if got.Replicates() != sc.Replicates() {
				t.Errorf("replicates %d != %d", got.Replicates(), sc.Replicates())
			}
		})
	}
}

// TestParseCanonicalRunEquivalence proves a reconstructed scenario doesn't
// just encode identically — it simulates identically.
func TestParseCanonicalRunEquivalence(t *testing.T) {
	sc, err := NewScenario(
		WithSeed(5), WithNodes(8), WithField(250, 250),
		WithRandomFlows(2, 2048, 128), WithDuration(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseCanonical(sc.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("results diverged: %s != %s", got.Fingerprint(), want.Fingerprint())
	}
}

func TestParseCanonicalErrors(t *testing.T) {
	base, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	valid := base.Canonical()
	cases := map[string]string{
		"empty":            "",
		"wrong version":    strings.Replace(valid, canonicalVersion, "eend.scenario/999", 1),
		"unknown field":    valid + "warp=9\n",
		"not name=value":   strings.Replace(valid, "bandwidth=0", "bandwidth", 1),
		"bad seed":         strings.Replace(valid, "seed=1", "seed=banana", 1),
		"bad placement":    strings.Replace(valid, "placement=uniform:50", "placement=ring:50", 1),
		"custom stack":     strings.Replace(valid, "custom=false", "custom=true", 1),
		"routes w/o stack": valid + "route=0:0-1\n",
		"missing stack": strings.Replace(valid,
			"stack=8,2,pc=true,span=false,perfect=false,odpm=0/0,custom=false,label=\n", "", 1),
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseCanonical(text); err == nil {
				t.Errorf("ParseCanonical accepted %q", name)
			}
		})
	}
}

// FuzzParseCanonical: canonical text is the fleet's wire format, so it
// arrives from outside (POST /v1/evaluate). Whatever the bytes, the parser
// never panics, and what it accepts it accepts exactly: the scenario
// re-encodes to the input byte for byte and its fingerprint is the input's
// SHA-256 — a worker can only simulate what the coordinator fingerprinted.
func FuzzParseCanonical(f *testing.F) {
	for _, sc := range canonicalScenarios(f) {
		f.Add(sc.Canonical())
	}
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := ParseCanonical(text)
		if err != nil {
			return
		}
		if got := sc.Canonical(); got != text {
			t.Fatalf("accepted text re-encodes differently:\n--- input\n%s\n--- canonical\n%s", text, got)
		}
		if sum := sha256.Sum256([]byte(text)); sc.Fingerprint() != hex.EncodeToString(sum[:]) {
			t.Fatalf("fingerprint %s is not the SHA-256 of the accepted text %q", sc.Fingerprint(), text)
		}
	})
}

// TestCanonicalAllocs bounds the encoder: one buffer and the returned
// string, not two strings per coordinate. A search pays Canonical per
// candidate and a warm sweep per point.
func TestCanonicalAllocs(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{X: 12.3456789 * float64(i), Y: 987.654321 / float64(i+1)}
	}
	sc, err := NewScenario(WithPositions(pts...), WithField(700, 1000), WithRandomFlows(10, 4096, 128))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sc.Canonical() }); allocs > 4 {
		t.Fatalf("Canonical of a 50-node positions scenario costs %.0f allocations, want at most 4", allocs)
	}
}
