package eend

import (
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/network"
	"eend/internal/radio"
	"eend/internal/traffic"
)

// TestMarginalAllocationsPerPacket states the allocation budget as a
// property: what a packet costs does not grow with the length of its route.
// One 20-node DSR/ODPM scenario runs for 40 s and for 80 s of virtual time;
// what the longer run allocates beyond the shorter one, divided by the
// packets it originates beyond it, must come to no more than 2 — the
// traffic.Datum, which it is (1.00), and room for route maintenance. With a
// packet copy, an envelope and a done closure per hop it came to 13.00 on
// this scenario's four-hop routes.
func TestMarginalAllocationsPerPacket(t *testing.T) {
	run := func(d time.Duration) (mallocs float64, sent uint64) {
		sc := network.Scenario{
			Seed:  12,
			Field: geom.Field{Width: 1200, Height: 300},
			Nodes: 20,
			Card:  radio.Cabletron,
			Stack: network.Stack{Routing: network.ProtoDSR, PM: network.PMODPM},
			Flows: []traffic.Flow{
				{ID: 1, Src: 0, Dst: 19, Rate: 4096, PacketBytes: 128, StartMin: 20 * time.Second, StartMax: 25 * time.Second},
				{ID: 2, Src: 3, Dst: 17, Rate: 4096, PacketBytes: 128, StartMin: 20 * time.Second, StartMax: 25 * time.Second},
				{ID: 3, Src: 8, Dst: 12, Rate: 4096, PacketBytes: 128, StartMin: 20 * time.Second, StartMax: 25 * time.Second},
			},
			Duration: d,
		}
		mallocs = testing.AllocsPerRun(2, func() {
			res, err := network.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			sent = res.Sent
			if res.Routing.DataForwarded < 2*res.Delivered {
				t.Fatalf("%d packets delivered over %d relayed hops: the routes are too short to tell", res.Delivered, res.Routing.DataForwarded)
			}
		})
		return mallocs, sent
	}
	short, sentShort := run(40 * time.Second)
	long, sentLong := run(80 * time.Second)
	if sentLong < sentShort+300 {
		t.Fatalf("%d packets in 80 s against %d in 40 s: too few to tell", sentLong, sentShort)
	}
	if marginal := (long - short) / float64(sentLong-sentShort); marginal > 2 {
		t.Errorf("%.0f allocations and %d packets in 40 s, %.0f and %d in 80 s: %.2f per additional packet, want at most 2",
			short, sentShort, long, sentLong, marginal)
	} else {
		t.Logf("%.2f allocations per additional packet (%.0f/%d in 40 s, %.0f/%d in 80 s)", marginal, short, sentShort, long, sentLong)
	}
}
