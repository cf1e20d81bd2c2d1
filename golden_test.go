package eend

import (
	"context"
	"testing"
	"time"
)

// goldenRuns pins fixed-seed scenario outcomes across kernel refactors: the
// expected values are Results.Fingerprint() hashes captured on the original
// container/heap event kernel. The slab-based engine (and any future
// scheduler change) must reproduce them bit-identically — same event order,
// same RNG draws, same metrics. If a change legitimately alters simulation
// behaviour (a model fix, a new random stream), recapture the values and
// say so in the commit; if only the scheduler changed, a mismatch here is a
// determinism bug.
var goldenRuns = []struct {
	name        string
	fingerprint string
	opts        []Option
}{
	{
		name:        "titan-pc-odpm",
		fingerprint: "854c60443834a06dacba6ca868cae355f7ef2fe19b002e5dc065d9cda5d625ed",
		opts: []Option{
			WithSeed(1),
			WithField(300, 300),
			WithNodes(20),
			WithStack(TITAN, ODPM, PowerControl()),
			WithRandomFlows(5, 2048, 128),
			WithDuration(60 * time.Second),
		},
	},
	{
		name:        "dsdvh-span-grid",
		fingerprint: "6a1b4f2c99bfc2c1b6d61ae95516c7590203f8bf402b6afff560e530bbe013ca",
		opts: []Option{
			WithSeed(7),
			WithField(400, 400),
			WithGrid(4, 4),
			WithStack(DSDVH, ODPM, Span()),
			WithRandomFlows(4, 4096, 128),
			WithDuration(60 * time.Second),
		},
	},
	{
		// One point of the paper's Section 5 grid (PR 20; captured on the
		// parent commit, when DSDV's table was a map and the MAC's exchange
		// lived in closures): ~13 neighbours each walking 50-row
		// advertisements, PM-triggered dumps, ten multi-hop flows.
		name:        "dsdvh-odpm",
		fingerprint: "b3b8d4923cc8671be674a5d6c7bc456a20767209738e5c38780a82ddbe159d87",
		opts: []Option{
			WithSeed(2),
			WithField(500, 500),
			WithNodes(50),
			WithStack(DSDVH, ODPM),
			WithRandomFlows(10, 4096, 128),
			WithDuration(120 * time.Second),
		},
	},
	{
		name:        "dsr-active-battery",
		fingerprint: "9320763a994219f316e181772edb63bbc1b658e4d7bd0d8fc1eb53d3c8d56bec",
		opts: []Option{
			WithSeed(3),
			WithField(350, 350),
			WithNodes(25),
			WithStack(DSR, AlwaysActive),
			WithRandomFlows(6, 2048, 128),
			WithBattery(5),
			WithDuration(60 * time.Second),
		},
	},
	{
		// Pinned routes (PR 19; captured on the parent commit, when static
		// routing was its own forwarding loop): flow 1 is delivered over two
		// hops, flow 2's relay 1 is 500 m from node 4 so every packet fails
		// at the MAC with no repair, flow 3 has no route and is dropped at
		// its source.
		name:        "static-odpm-pc",
		fingerprint: "ac065c55ded107e1952d07a6c989f9df5810b443c365ba73787ea25dac00008c",
		opts: []Option{
			WithSeed(5),
			WithField(800, 200),
			WithPositions(
				Point{X: 0, Y: 50}, Point{X: 200, Y: 50}, Point{X: 395, Y: 50},
				Point{X: 200, Y: 150}, Point{X: 700, Y: 150},
			),
			WithFlows(
				Flow{ID: 1, Src: 0, Dst: 2, Rate: 2048, PacketBytes: 128, StartMin: 2 * time.Second, StartMax: 3 * time.Second},
				Flow{ID: 2, Src: 3, Dst: 4, Rate: 2048, PacketBytes: 128, StartMin: 2 * time.Second, StartMax: 3 * time.Second},
				Flow{ID: 3, Src: 2, Dst: 3, Rate: 2048, PacketBytes: 128, StartMin: 2 * time.Second, StartMax: 3 * time.Second},
			),
			WithStack(StaticRoutes([]int{0, 1, 2}, []int{3, 1, 4}), ODPM, PowerControl()),
			WithDuration(30 * time.Second),
		},
	},
}

func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			sc, err := NewScenario(g.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if fp := res.Fingerprint(); fp != g.fingerprint {
				t.Errorf("results fingerprint = %s, want %s", fp, g.fingerprint)
			}
		})
	}
}

// TestGoldenRunsAreReproducible proves the fingerprints above are properties
// of the scenario, not of one process: two fresh runs in this process must
// agree with each other.
func TestGoldenRunsAreReproducible(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var fps [2]string
			for i := range fps {
				sc, err := NewScenario(g.opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sc.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				fps[i] = res.Fingerprint()
			}
			if fps[0] != fps[1] {
				t.Errorf("two runs disagree: %s vs %s", fps[0], fps[1])
			}
		})
	}
}
