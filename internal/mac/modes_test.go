package mac

import (
	"math/rand/v2"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
	"eend/internal/topology"
)

// TestModeTable holds the coordinator's mode table, the one copy of every
// node's power-management mode. An id with no MAC behind it reads AM: the
// recorder, attached to the medium at a sparse id inside every row, an id
// past the table and a negative one. After every step of a SetPowerMode
// burst, across beacons and ATIM windows, each MAC's PowerMode, its own
// PeerPowerMode and every other MAC's view of it agree, and anyPSMNeighbor
// says whether a MAC in the row is in PSM, the recorder never counting.
func TestModeTable(t *testing.T) {
	s := sim.New(5)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := NewCoordinator(s)
	var macs []*MAC
	for i := 0; i < 5; i++ {
		macs = append(macs, New(s, med, coord, i, geom.Point{X: float64(40 * i)}, Config{Card: radio.Cabletron}, nil))
	}
	med.Attach(&recorder{id: 100, pos: geom.Point{X: 80, Y: 30}, sim: s})
	coord.Start()
	rng := rand.New(rand.NewPCG(5, 25))
	for step := 0; step < 300; step++ {
		mode := AM
		if rng.IntN(2) == 0 {
			mode = PSM
		}
		macs[rng.IntN(len(macs))].SetPowerMode(mode)
		if step%10 == 0 {
			s.Run(s.Now() + 37*time.Millisecond)
		}
		for _, a := range macs {
			if a.PowerMode() != a.PeerPowerMode(a.id) {
				t.Fatalf("step %d: node %d is %v, its PeerPowerMode of itself %v", step, a.id, a.PowerMode(), a.PeerPowerMode(a.id))
			}
			psm := false
			for _, b := range macs {
				if got := a.PeerPowerMode(b.id); got != b.PowerMode() {
					t.Fatalf("step %d: node %d reads node %d as %v, which is %v", step, a.id, b.id, got, b.PowerMode())
				}
				psm = psm || b != a && b.PowerMode() == PSM
			}
			if got := a.anyPSMNeighbor(); got != psm {
				t.Fatalf("step %d: node %d's anyPSMNeighbor = %t, want %t", step, a.id, got, psm)
			}
			for _, id := range []int{100, 5, 1000, -1} {
				if got := a.PeerPowerMode(id); got != AM {
					t.Fatalf("step %d: PeerPowerMode(%d) = %v, want AM (no MAC)", step, id, got)
				}
			}
		}
	}
}

// BenchmarkBroadcastEligible is the check a broadcast makes before every
// attempt: may it contend now, or must it first be announced to a PSM
// neighbour? The node is the first of 400 at the paper's reference density
// with the density's mean row, 39 neighbours; the later half of its row, in
// id order, is in PSM, so the scan reads half the row before it finds one.
// 0 allocs/op, a hard gate in CI.
func BenchmarkBroadcastEligible(b *testing.B) {
	b.ReportAllocs()
	const n = 400
	s := sim.New(1)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := NewCoordinator(s)
	side := topology.SideForDensity(n)
	macs := make([]*MAC, n)
	for i, p := range geom.UniformPlacement(geom.Field{Width: side, Height: side}, n, rand.New(rand.NewPCG(n, 7))) {
		macs[i] = New(s, med, coord, i, p, Config{Card: radio.Cabletron}, nil)
	}
	var m *MAC
	for _, m = range macs {
		if len(m.NeighborsCached()) == 39 {
			break
		}
	}
	row := m.NeighborsCached()
	if len(row) != 39 {
		b.Fatalf("no node of %d has a 39-neighbour row", n)
	}
	for _, id := range row[len(row)/2:] {
		macs[id].SetPowerMode(PSM)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, announce := m.eligible(&job{dst: phy.Broadcast}); ok || !announce {
			b.Fatal("a broadcast with PSM neighbours went ahead unannounced")
		}
	}
	b.ReportMetric(float64(len(row)), "neighbours")
}
