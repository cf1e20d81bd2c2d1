package routing

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/radio"
)

// reqKey is the key of the per-node duplicate maps the flood table replaced.
type reqKey struct {
	origin int
	id     uint64
}

// TestFloodTableMatchesMaps plays random get/set scripts against the flood
// table and, as the reference, one map[reqKey]float64 per node — what DSR's
// seen and answered were. Origins and nodes run past the table's size (0: a
// zero RunState, every array grows on demand), request ids arrive out of
// order and skip (a node first hears request 3 when 1 and 2 were lost), and
// the costs include −Inf (a declined request), +Inf and a NaN, which must
// read back as recorded, bit for bit.
func TestFloodTableMatchesMaps(t *testing.T) {
	costs := []float64{0, 1, 2.5, -3, 1e-300, math.Inf(-1), math.Inf(1), math.NaN()}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 25))
		tab := floodTable{nodes: rng.IntN(8)}
		ref := map[int]map[reqKey]float64{}
		for step := 0; step < 3000; step++ {
			origin, node := rng.IntN(tab.nodes+4), rng.IntN(tab.nodes+4)
			id := uint64(1 + rng.IntN(6))
			if rng.IntN(2) == 0 {
				c := costs[rng.IntN(len(costs))]
				tab.set(origin, id, node, c)
				if ref[node] == nil {
					ref[node] = map[reqKey]float64{}
				}
				ref[node][reqKey{origin, id}] = c
			}
			got, ok := tab.get(origin, id, node)
			want, wantOK := ref[node][reqKey{origin, id}]
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: get(%d, %d, %d) = %v, %t; the map holds %v, %t",
					seed, step, origin, id, node, got, ok, want, wantOK)
			}
		}
		for _, q := range []struct {
			origin int
			id     uint64
			node   int
		}{{1 << 20, 1, 0}, {0, 0, 0}, {0, 1 << 40, 0}, {0, 1, 1 << 20}} {
			if c, ok := tab.get(q.origin, q.id, q.node); ok || c != 0 {
				t.Errorf("seed %d: get%v past the table = %v, %t, want 0, false", seed, q, c, ok)
			}
		}
	}
	// The marker is a value no recorded cost can be: an IEEE 754 sum never
	// returns a signalling NaN, even of one.
	snan := math.Float64frombits(unrecorded)
	for _, c := range []float64{snan + 1, 1 + snan, snan + snan, math.NaN() + snan} {
		if math.Float64bits(c) == unrecorded || !math.IsNaN(c) {
			t.Errorf("a sum of the marker is %#x, want a quiet NaN", math.Float64bits(c))
		}
	}
}

// TestPrivateFloodTables floods two crossing discoveries over a 3×3 grid of
// MTPR+ nodes, which re-forward cheaper duplicates, twice: once with the
// testbed's shared RunState, once with each node's Env given a NewRunState of
// its own. What the MACs hand up, what is delivered and every counter are the
// same, each private table holds its own node's slots and no other, and no
// two nodes share one.
func TestPrivateFloodTables(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 9; i++ {
		pts = append(pts, geom.Point{X: float64(i%3) * 150, Y: float64(i/3) * 150})
	}
	run := func(private bool) (*rtb, string) {
		var log strings.Builder
		tb := newRTB(t, 3, radio.Cabletron, pts, func(e *Env) Protocol {
			if private {
				e.Run = NewRunState(len(pts))
			}
			return NewMTPRPlus(e)
		})
		tb.onPacket = func(at, from int, pkt *mac.Packet) {
			fmt.Fprintf(&log, "%d %d<%d", tb.sim.Now(), at, from)
			if r, ok := pkt.Payload.(*rreq); ok {
				fmt.Fprintf(&log, " rreq %d>%d #%d cost=%x path=%v", r.Origin, r.Target, r.ID, math.Float64bits(r.Cost), r.Path)
			}
			log.WriteByte('\n')
		}
		tb.sim.Schedule(10*time.Millisecond, func() {
			tb.protos[0].Send(8, 128, nil, 0)
			tb.protos[2].Send(6, 128, nil, 0)
		})
		tb.sim.Run(3 * time.Second)
		for i, p := range tb.protos {
			fmt.Fprintf(&log, "node %d delivered %d stats %+v\n", i, tb.delivered[i], p.Stats())
		}
		return tb, log.String()
	}
	_, shared := run(false)
	tb, private := run(true)
	if shared != private {
		t.Fatalf("private tables changed the run:\n%s\nwant\n%s", private, shared)
	}
	if tb.delivered[8] != 1 || tb.delivered[6] != 1 || strings.Count(shared, "rreq") < 20 {
		t.Fatalf("delivered %v with %d RREQ copies heard: the floods should cross and both be answered",
			tb.delivered, strings.Count(shared, "rreq"))
	}
	owners := map[*RunState]int{}
	for i, p := range tb.protos {
		run := p.(*DSR).env.Run
		if prev, dup := owners[run]; dup || run == nil || run == tb.run {
			t.Fatalf("node %d's table is shared (with node %d, or the testbed's)", i, prev)
		}
		owners[run] = i
		for origin, ids := range run.floods.reqs {
			for id, costs := range ids {
				for node := range costs {
					if _, ok := run.floods.get(origin, uint64(id+1), node); ok && node != i {
						t.Errorf("node %d's private table holds node %d's slot of request %d#%d", i, node, origin, id+1)
					}
				}
			}
		}
	}
}
