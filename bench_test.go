package eend

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"eend/internal/core"
	"eend/internal/experiments"
	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/network"
	"eend/internal/phy"
	"eend/internal/power"
	"eend/internal/radio"
	"eend/internal/routing"
	"eend/internal/sim"
	"eend/internal/topology"
	"eend/internal/traffic"
)

// Every table and figure of the paper has a bench that regenerates it at
// Quick scale (cmd/eendfig -scale full produces the paper-sized versions).
// The per-figure benches measure end-to-end regeneration cost; the micro
// benches at the bottom cover the simulator's hot paths.

func quickRunner() experiments.Runner { return experiments.Runner{Scale: experiments.Quick} }

var benchCtx = context.Background()

// figureBenches drives every per-figure bench through one table: each case
// regenerates a figure at Quick scale by id and says how many series it must
// contain (0 means a text-only table).
var figureBenches = []struct {
	name, id string
	series   int
}{
	{"Table1Cards", "table1", 0},
	{"Fig7Mopt", "fig7", 6},
	{"Fig8DeliverySmall", "fig8", 8},
	{"Fig9GoodputSmall", "fig9", 8},
	{"Fig10TransmitEnergy", "fig10", 4},
	{"Fig11DeliveryLarge", "fig11", 7},
	{"Fig12GoodputLarge", "fig12", 7},
	{"Table2Density", "table2", 4},
	{"Fig13GridPerfectLow", "fig13", 6},
	{"Fig14GridODPMLow", "fig14", 6},
	{"Fig15GridPerfectHigh", "fig15", 6},
	{"Fig16GridODPMHigh", "fig16", 6},
}

func BenchmarkFigures(b *testing.B) {
	for _, bc := range figureBenches {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := quickRunner().Run(benchCtx, bc.id)
				if err != nil {
					b.Fatalf("%s: %v", bc.name, err)
				}
				if bc.series == 0 {
					if f.Text == "" {
						b.Fatalf("%s: empty table", bc.name)
					}
				} else if len(f.Series) != bc.series {
					b.Fatalf("%s: %d series, want %d (%v)", bc.name, len(f.Series), bc.series, f.Notes)
				}
			}
		})
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// benchStackScenario runs one mid-sized scenario with the given stack.
func benchStackScenario(b *testing.B, st network.Stack) network.Results {
	b.Helper()
	sc := network.Scenario{
		Seed:  9,
		Field: geom.Field{Width: 500, Height: 500},
		Nodes: 30,
		Card:  radio.Cabletron,
		Stack: st,
		Flows: []traffic.Flow{
			{ID: 1, Src: 0, Dst: 29, Rate: 4096, PacketBytes: 128, StartMin: 10 * time.Second, StartMax: 12 * time.Second},
			{ID: 2, Src: 3, Dst: 27, Rate: 4096, PacketBytes: 128, StartMin: 10 * time.Second, StartMax: 12 * time.Second},
		},
		Duration: 60 * time.Second,
	}
	res, err := network.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationPowerControl isolates the cost/benefit of TPC on the
// data path (PC vs max-power data frames).
func BenchmarkAblationPowerControl(b *testing.B) {
	for _, pc := range []bool{false, true} {
		name := "off"
		if pc {
			name = "on"
		}
		b.Run("pc="+name, func(b *testing.B) {
			var amp float64
			for i := 0; i < b.N; i++ {
				res := benchStackScenario(b, network.Stack{
					Routing: network.ProtoDSR, PM: network.PMODPM, PowerControl: pc,
				})
				amp = res.TxAmpEnergy
			}
			b.ReportMetric(amp, "radiated-J")
		})
	}
}

// BenchmarkAblationAdvertisedWindow isolates the Span-style PSM improvement
// for a broadcast-heavy proactive stack.
func BenchmarkAblationAdvertisedWindow(b *testing.B) {
	for _, adv := range []bool{false, true} {
		name := "off"
		if adv {
			name = "on"
		}
		b.Run("span="+name, func(b *testing.B) {
			var idle float64
			for i := 0; i < b.N; i++ {
				res := benchStackScenario(b, network.Stack{
					Routing: network.ProtoDSDVH, PM: network.PMODPM, AdvertisedWindow: adv,
				})
				idle = res.Energy.Idle
			}
			b.ReportMetric(idle, "idle-J")
		})
	}
}

// BenchmarkAblationODPMKeepAlive compares the paper's (5 s, 10 s)
// keep-alive pair against the aggressive (0.6 s, 1.2 s) variant.
func BenchmarkAblationODPMKeepAlive(b *testing.B) {
	cfgs := map[string]network.Stack{
		"5s-10s": {Routing: network.ProtoDSR, PM: network.PMODPM},
		"0.6s-1.2s": {Routing: network.ProtoDSR, PM: network.PMODPM,
			ODPM: power.ODPMConfig{
				DataTimeout:  600 * time.Millisecond,
				RouteTimeout: 1200 * time.Millisecond,
			}},
	}
	for name, st := range cfgs {
		b.Run(name, func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				goodput = benchStackScenario(b, st).EnergyGoodput
			}
			b.ReportMetric(goodput, "bit/J")
		})
	}
}

// BenchmarkScenarioEndToEnd measures one complete fixed-seed run — build,
// event loop, metrics — of a mid-sized TITAN-PC/ODPM scenario. Its
// allocs/op is the headline number for kernel allocation work: the slab
// engine plus pre-bound timer callbacks cut it by more than half against
// the original container/heap kernel.
func BenchmarkScenarioEndToEnd(b *testing.B) {
	b.ReportAllocs()
	sc := network.Scenario{
		Seed:  9,
		Field: geom.Field{Width: 400, Height: 400},
		Nodes: 20,
		Card:  radio.Cabletron,
		Stack: network.Stack{Routing: network.ProtoTITAN, PM: network.PMODPM, PowerControl: true},
		Flows: []traffic.Flow{
			{ID: 1, Src: 0, Dst: 19, Rate: 2048, PacketBytes: 128, StartMin: 5 * time.Second, StartMax: 6 * time.Second},
			{ID: 2, Src: 3, Dst: 17, Rate: 2048, PacketBytes: 128, StartMin: 5 * time.Second, StartMax: 6 * time.Second},
			{ID: 3, Src: 8, Dst: 12, Rate: 2048, PacketBytes: 128, StartMin: 5 * time.Second, StartMax: 6 * time.Second},
		},
		Duration: 30 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		res, err := network.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkReplicatedRunFanout measures the execution scheduler's
// replicate fan-out: one scenario with 8 seed-derived replicates on a
// batch pool of 1 versus 4 workers. Results are bit-identical either way
// (the ordered merge). What the fan-out buys is bounded by the cores, not
// the workers: on the two-core box this repository is measured on,
// workers=1 time over workers=4 at -benchtime 100x read 1.1-1.5 (median
// 1.33 of ten runs; 1.30-1.38 at 1000x) while every fired event and
// scheduled timer incremented a process-wide counter — two processes side
// by side scaled 1.75x, so the workers were waiting for each other's cache
// line — and reads 1.25-1.75 (median 1.53; 1.39-1.85 at 1000x) since a run
// tallies in its own kernel (PR 22).
func BenchmarkReplicatedRunFanout(b *testing.B) {
	sc, err := NewScenario(
		WithSeed(5),
		WithField(300, 300),
		WithNodes(14),
		WithStack(TITAN, ODPM),
		WithRandomFlows(3, 2048, 128),
		WithDuration(30*time.Second),
		WithReplicates(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for br := range RunBatch(benchCtx, []*Scenario{sc}, Workers(workers)) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
					if br.Results.Replicates == nil || br.Results.Replicates.N != 8 {
						b.Fatal("replicate summary missing")
					}
				}
			}
		})
	}
}

// BenchmarkResultsDecode is the warm read path's micro-row: one op decodes
// one cache entry (the Results JSON of a paper-grid point) with the
// schema-specific decoder every cache hit goes through. Its end-to-end
// counterpart is paper-grid-warm in bench/.
func BenchmarkResultsDecode(b *testing.B) {
	for _, nodes := range []int{20, 50} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			data, err := json.Marshal(gridPointResults(b, nodes))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := network.DecodeResults(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultsEncode is the write side's micro-row: one op appends the
// same Results to a reused buffer with the codec Fingerprint hashes and a
// cache store keeps. 0 allocs/op, CI-gated: nothing is allocated per node.
func BenchmarkResultsEncode(b *testing.B) {
	for _, nodes := range []int{20, 50} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			res := gridPointResults(b, nodes)
			var w network.Writer
			w.Results(res)
			b.SetBytes(int64(len(w.Buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset(false)
				w.Results(res)
			}
		})
	}
}

// gridPointResults simulates a paper-grid point of the given size.
func gridPointResults(b *testing.B, nodes int) *Results {
	sc, err := NewScenario(WithSeed(1), WithNodes(nodes), WithStack(TITAN, ODPM, PowerControl()),
		WithRandomFlows(4, 4096, 128), WithDuration(40*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	res, err := sc.Run(benchCtx)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- micro benches: simulator hot paths ---

// quietListener is a receive-capable node with no MAC above it, so the
// medium benches measure pure phy cost.
type quietListener struct {
	id  int
	pos geom.Point
	rx  int
}

func (n *quietListener) NodeID() int            { return n.id }
func (n *quietListener) Pos() geom.Point        { return n.pos }
func (n *quietListener) CanReceive() bool       { return true }
func (n *quietListener) RxBegin(*phy.Frame)     {}
func (n *quietListener) RxEnd(*phy.Frame, bool) { n.rx++ }

// BenchmarkMediumScale is the large-field tier of the kernel baseline: one
// op is one max-power broadcast frame through Transmit and completion
// (fan-out, carrier-sense overlay, inbox bookkeeping, RxBegin/RxEnd to
// every in-range listener) on a field at the paper's reference density.
// With the reach tables the per-frame cost depends on the ~40-node
// neighborhood, not the field, so ns/op must stay roughly flat from 1k to
// 10k nodes — the scaling curve BENCH_kernel.json tracks in CI. It reads
// the steady state: one Frame is reused (as a MAC reuses its own), and
// before the timer starts every node has transmitted once, so the tables
// are built, the pools warm and every inbox has its first slot. CI gates
// both tiers at 0 allocs/op (tools/benchjson -assert-zero-allocs).
func BenchmarkMediumScale(b *testing.B) {
	for _, tier := range []struct {
		name string
		n    int
	}{{"nodes=1k", 1000}, {"nodes=10k", 10000}} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			s := sim.New(1)
			card := radio.Cabletron
			med := phy.NewMedium(s, phy.Config{RangeAt: card.RangeAt})
			side := topology.SideForDensity(tier.n)
			rng := rand.New(rand.NewPCG(uint64(tier.n), 7))
			pts := geom.UniformPlacement(geom.Field{Width: side, Height: side}, tier.n, rng)
			nodes := make([]*quietListener, tier.n)
			for i, p := range pts {
				nodes[i] = &quietListener{id: i, pos: p}
				med.Attach(nodes[i])
			}
			f := &phy.Frame{Dst: phy.Broadcast, Bytes: 128, Power: card.MaxTxPower()}
			for i := range nodes {
				f.Src = i
				s.Run(med.Transmit(f))
			}
			for _, n := range nodes {
				n.rx = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Src = i % tier.n
				s.Run(med.Transmit(f))
			}
			received := 0
			for _, n := range nodes {
				received += n.rx
			}
			b.ReportMetric(float64(received)/float64(b.N), "rx/frame")
		})
	}
}

// BenchmarkGridQuery is the steady-state spatial-index probe: candidate
// lookup around a point on a 10k-node constant-density field, into a
// retained buffer. CI gates it at 0 allocs/op (tools/benchjson
// -assert-zero-allocs) so the index can never start allocating per frame.
func BenchmarkGridQuery(b *testing.B) {
	b.ReportAllocs()
	const n = 10000
	side := topology.SideForDensity(n)
	rng := rand.New(rand.NewPCG(n, 7))
	pts := geom.UniformPlacement(geom.Field{Width: side, Height: side}, n, rng)
	g := geom.NewGrid(radio.Cabletron.Range, pts)
	buf := make([]int32, 0, 1024)
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Query(pts[i%n], radio.Cabletron.Range, buf[:0])
		found += len(buf)
	}
	if found == 0 {
		b.Fatal("queries found no candidates")
	}
}

func BenchmarkSimEventLoop(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		s.Schedule(time.Microsecond, tick)
	}
	s.Schedule(0, tick)
	b.ResetTimer()
	s.Run(time.Duration(b.N) * time.Microsecond)
	if n < b.N {
		b.Fatalf("fired %d events, want >= %d", n, b.N)
	}
}

func BenchmarkMACUnicastExchange(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := mac.NewCoordinator(s)
	delivered := 0
	a := mac.New(s, med, coord, 0, geom.Point{X: 0, Y: 0}, mac.Config{Card: radio.Cabletron}, nil)
	mac.New(s, med, coord, 1, geom.Point{X: 100, Y: 0}, mac.Config{Card: radio.Cabletron},
		func(int, *mac.Packet) { delivered++ })
	coord.Start()
	// One packet and one callback, reused: what is measured is the MAC alone
	// (0 allocs/op, a hard gate in CI), not the caller's per-packet garbage.
	pkt := &mac.Packet{Kind: mac.PacketData, Bytes: 128}
	var done mac.DoneFunc
	send := func() { a.SendUnicast(1, pkt, 0, done) }
	done = func(bool) {
		if delivered < b.N {
			send()
		} else {
			s.Stop()
		}
	}
	// Prime the job free list, the kernel's slab and the per-peer tables.
	a.SendUnicast(1, pkt, 0, nil)
	s.Run(5 * time.Millisecond)
	delivered = 0
	b.ResetTimer()
	s.Schedule(0, send)
	s.Run(s.Now() + time.Duration(b.N)*10*time.Millisecond)
	if delivered < b.N {
		b.Fatalf("delivered %d, want %d", delivered, b.N)
	}
}

// routingChain returns a four-node chain, 200 m apart and always active,
// run for 40 s under st — long enough for DSDV to converge — and ready to be
// driven on by hand through Sim.
func routingChain(b *testing.B, st network.Stack) *network.Network {
	b.Helper()
	nw, err := network.Build(network.Scenario{
		Seed:      1,
		Positions: []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}},
		Card:      radio.Cabletron,
		Stack:     st,
		Duration:  40 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nw.ExecuteContext(benchCtx); err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkRoutingHop sends one data packet down the chain per op: three
// hops, each one a send state from the run's pool (ARCHITECTURE "Send
// state"). The payload is the caller's and reused, so what is measured is
// the routing layer and the MAC under it: 0 allocs/op, a hard gate in CI.
func BenchmarkRoutingHop(b *testing.B) {
	for _, c := range []struct {
		name  string
		stack network.Stack
	}{
		{"dsr-pinned", network.Stack{Routing: network.ProtoStatic, Routes: [][]int{{0, 1, 2, 3}}, PowerControl: true}},
		{"dsdv", network.Stack{Routing: network.ProtoDSDV}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			nw := routingChain(b, c.stack)
			s, src, sink := nw.Sim(), nw.Protocol(0), nw.Protocol(3)
			payload := any(&traffic.Datum{})
			hop := func() {
				src.Send(3, 128, payload, 2048)
				s.Run(s.Now() + 20*time.Millisecond)
			}
			hop() // warm the pool
			before := sink.Stats().DataDelivered
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop()
			}
			if got := sink.Stats().DataDelivered - before; got != uint64(b.N) {
				b.Fatalf("delivered %d of %d", got, b.N)
			}
		})
	}
}

// BenchmarkDSDVFullDump is one DSDV period on the chain per op: each of the
// four nodes advertises its whole table once, from an update whose entries
// keep their backing array in the pool. 0 allocs/op, a hard gate in CI.
func BenchmarkDSDVFullDump(b *testing.B) {
	b.ReportAllocs()
	nw := routingChain(b, network.Stack{Routing: network.ProtoDSDV})
	s := nw.Sim()
	updates := func() (n uint64) {
		for id := 0; id < 4; id++ {
			n += nw.Protocol(id).Stats().UpdatesSent
		}
		return n
	}
	before := updates()
	b.ResetTimer()
	s.Run(s.Now() + time.Duration(b.N)*15*time.Second)
	if got := updates() - before; got != 4*uint64(b.N) {
		b.Fatalf("%d full dumps in %d periods, want 4 per period", got, b.N)
	}
}

// BenchmarkDuplicateRREQ is the copy most nodes of a flood hear: a request
// they have already forwarded, arriving again. Node 1 forwards node 0's
// request for an absent node once; each op hands it the origin's copy
// again, which its slot of the run's flood table (ARCHITECTURE "Flood
// state") turns away. 0 allocs/op, a hard gate in CI.
func BenchmarkDuplicateRREQ(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	med := phy.NewMedium(s, phy.Config{RangeAt: radio.Cabletron.RangeAt})
	coord := mac.NewCoordinator(s)
	run := routing.NewRunState(2)
	protos := make([]routing.Protocol, 2)
	macs := make([]*mac.MAC, 2)
	var heard mac.Packet // the first copy node 1 hears: the origin's
	for id, x := range []float64{0, 100} {
		macs[id] = mac.New(s, med, coord, id, geom.Point{X: x}, mac.Config{Card: radio.Cabletron},
			func(from int, pkt *mac.Packet) {
				if id == 1 && heard.Payload == nil {
					heard = *pkt
				}
				protos[id].HandlePacket(from, pkt)
			})
		protos[id] = routing.NewDSR(&routing.Env{ID: id, Sim: s, MAC: macs[id], PM: &power.AlwaysActive{Node: macs[id]}, Run: run}, false)
	}
	coord.Start()
	protos[0].Send(99, 128, nil, 0)
	s.Run(100 * time.Millisecond)
	if heard.Payload == nil || macs[1].Stats().BroadcastSent != 1 {
		b.Fatal("node 1 did not forward the request")
	}
	pending := s.Pending()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		protos[1].HandlePacket(0, &heard)
	}
	if s.Pending() != pending {
		b.Fatal("a duplicate was forwarded again")
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := core.NewGraph(400)
	for i := 0; i < 400; i++ {
		for j := 1; j <= 4; j++ {
			if i+j < 400 {
				g.AddEdge(i, i+j, float64(j))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ := g.ShortestPath(0, 399, nil, nil)
		if path == nil {
			b.Fatal("no path")
		}
	}
}

func BenchmarkSteinerForest(b *testing.B) {
	g, demands := core.SFGadget(20, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SteinerForest(demands, nil); err != nil {
			b.Fatal(err)
		}
	}
}
