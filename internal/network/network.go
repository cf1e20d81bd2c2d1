// Package network assembles complete simulated wireless networks: it wires
// the simulation kernel, medium, MAC+PSM coordinator, power managers,
// routing protocols and CBR traffic into a Scenario that runs to completion
// and reports the paper's metrics (delivery ratio, energy goodput, transmit
// energy, relay counts).
package network

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/metrics"
	"eend/internal/phy"
	"eend/internal/power"
	"eend/internal/radio"
	"eend/internal/routing"
	"eend/internal/sim"
	"eend/internal/traffic"
)

// EndpointRNG returns the deterministic RNG used to draw flow endpoints for
// a run seed, decoupled from the scenario's own random stream so that
// endpoint choice stays stable when other randomness changes.
func EndpointRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5bd1e995))
}

// ProtocolKind selects the routing protocol.
type ProtocolKind int

// Routing protocols from the paper.
const (
	ProtoDSR ProtocolKind = iota + 1
	ProtoMTPR
	ProtoMTPRPlus
	ProtoDSRHRate
	ProtoDSRHNoRate
	ProtoDSDV
	ProtoDSDVH
	ProtoTITAN
	// ProtoStatic pins every route at construction time (Stack.Routes): the
	// protocol the opt subsystem uses to put static designs in front of the
	// simulator.
	ProtoStatic
)

// PMKind selects the power-management policy.
type PMKind int

// Power-management policies.
const (
	PMAlwaysActive PMKind = iota + 1
	PMODPM
)

// Stack describes one protocol stack under evaluation (a line in the
// paper's figures).
type Stack struct {
	Label        string // display name; derived from parts when empty
	Routing      ProtocolKind
	PowerControl bool
	PM           PMKind
	// ODPM overrides the keep-alive timers (zero: paper defaults 5 s/10 s).
	ODPM power.ODPMConfig
	// AdvertisedWindow enables the Span-style PSM improvement at the MAC.
	AdvertisedWindow bool
	// PerfectSleep prices idle time at sleep power (the oracle of
	// Section 5.2.3); it composes with PMAlwaysActive.
	PerfectSleep bool
	// Custom, when non-nil, overrides Routing with a caller-built protocol
	// (used by the ablation experiments to run protocol variants that have
	// no ProtocolKind).
	Custom func(env *routing.Env) routing.Protocol
	// Routes holds the pinned node paths of a ProtoStatic stack (one per
	// demand of the design under evaluation); ignored by every other kind.
	Routes [][]int
}

// Name returns the stack's display label.
func (st Stack) Name() string {
	if st.Label != "" {
		return st.Label
	}
	name := map[ProtocolKind]string{
		ProtoDSR: "DSR", ProtoMTPR: "MTPR", ProtoMTPRPlus: "MTPR+",
		ProtoDSRHRate: "DSRH(rate)", ProtoDSRHNoRate: "DSRH(norate)",
		ProtoDSDV: "DSDV", ProtoDSDVH: "DSDVH", ProtoTITAN: "TITAN",
		ProtoStatic: "Static",
	}[st.Routing]
	switch st.PM {
	case PMODPM:
		name += "-ODPM"
	case PMAlwaysActive:
		name += "-Active"
	}
	if st.PowerControl {
		name += "-PC"
	}
	return name
}

// Scenario is a complete experiment configuration.
type Scenario struct {
	Seed     uint64
	Field    geom.Field
	Nodes    int // ignored when Positions or Grid set
	GridRows int // >0 selects grid placement (with GridCols)
	GridCols int
	// Positions overrides placement entirely when non-nil.
	Positions []geom.Point

	Card      radio.Card
	Bandwidth float64 // channel bit/s; 0 = phy.DefaultBandwidth

	Stack Stack
	Flows []traffic.Flow

	Duration time.Duration

	// BatteryJ, when positive, gives every node an energy budget in joules
	// and enables the lifetime metrics in Results (the paper's future-work
	// extension; see lifetime.go).
	BatteryJ float64

	// LinearMedium builds the phy layer with the O(n) linear-scan
	// reference instead of the spatial neighbor index. Results are
	// bit-identical either way; the differential tests run both and
	// compare fingerprints to prove it. Not for production use.
	LinearMedium bool
}

// Results aggregates one run. The JSON field names are the machine-readable
// contract served by cmd/eendd and the eend facade; keep them stable.
type Results struct {
	Stack    string        `json:"stack"`
	Duration time.Duration `json:"duration_ns"`

	Sent          uint64  `json:"sent"`
	Delivered     uint64  `json:"delivered"`
	DeliveryRatio float64 `json:"delivery_ratio"`
	DeliveredBits float64 `json:"delivered_bits"`

	Energy        radio.Breakdown `json:"energy"`          // network total (Eq. 4)
	EnergyGoodput float64         `json:"energy_goodput"`  // delivered app bits / total joules
	TxEnergy      float64         `json:"tx_energy_j"`     // total transmit energy, data + control
	TxAmpEnergy   float64         `json:"tx_amp_energy_j"` // radiated (amplifier) transmit energy (Fig. 10)

	Relays int `json:"relays"` // nodes that forwarded at least one data packet

	Routing routing.Stats `json:"routing"`
	MAC     mac.Stats     `json:"mac"`
	Events  uint64        `json:"events"`

	// Lifetime is non-nil when Scenario.BatteryJ was set.
	Lifetime *Lifetime `json:"lifetime,omitempty"`

	// Replicates is non-nil when the run was replicated over derived
	// seeds (eend.WithReplicates): mean and 95% CI of every headline
	// metric across the replicate set. The scalar fields above then hold
	// the first replicate's (base seed's) values.
	Replicates *metrics.Summary `json:"replicates,omitempty"`

	// PerNode holds per-node outcomes, indexed by node id.
	PerNode []NodeResults `json:"per_node,omitempty"`
}

// NodeResults is one node's outcome.
type NodeResults struct {
	ID        int             `json:"id"`
	Pos       geom.Point      `json:"pos"`
	Energy    radio.Breakdown `json:"energy"`
	Forwarded uint64          `json:"forwarded"` // data packets relayed (nonzero marks a relay)
	Delivered uint64          `json:"delivered"` // data packets sunk here
	Sent      uint64          `json:"sent"`      // data packets originated here
	FinalMode mac.PowerMode   `json:"final_mode"`
}

// node bundles one simulated node's layers.
type node struct {
	id    int
	mac   *mac.MAC
	pm    power.Manager
	proto routing.Protocol
}

// Network is a fully wired simulation ready to run.
type Network struct {
	sc    Scenario
	sim   *sim.Simulator
	med   *phy.Medium
	coord *mac.Coordinator
	nodes []*node
	col   *traffic.Collector
	srcs  []*traffic.Source
}

// Build validates the scenario and wires all layers.
func Build(sc Scenario) (*Network, error) {
	if err := sc.Card.Validate(); err != nil {
		return nil, err
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("network: non-positive duration")
	}
	card := sc.Card
	if sc.Stack.PerfectSleep {
		card = card.PerfectSleep()
	}

	s := sim.New(sc.Seed)
	s.CountInto(kernelCounts)
	med := phy.NewMedium(s, phy.Config{
		Bandwidth: sc.Bandwidth,
		RangeAt:   card.RangeAt,
		Linear:    sc.LinearMedium,
	})
	coord := mac.NewCoordinator(s)

	positions := sc.Positions
	switch {
	case positions != nil:
	case sc.GridRows > 0 && sc.GridCols > 0:
		positions = geom.GridPlacement(sc.Field, sc.GridRows, sc.GridCols)
	default:
		positions = geom.UniformPlacement(sc.Field, sc.Nodes, s.RNG())
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("network: no nodes")
	}

	bw := sc.Bandwidth
	if bw <= 0 {
		bw = phy.DefaultBandwidth
	}

	nw := &Network{sc: sc, sim: s, med: med, coord: coord, col: traffic.NewCollector()}
	shared := routing.NewRunState(len(positions)) // ARCHITECTURE "Send state", "Flood state"

	for id, pos := range positions {
		n := &node{id: id}
		macCfg := mac.Config{
			Card:             card,
			AdvertisedWindow: sc.Stack.AdvertisedWindow,
		}
		n.mac = mac.New(s, med, coord, id, pos, macCfg, func(from int, pkt *mac.Packet) {
			n.proto.HandlePacket(from, pkt)
		})

		switch sc.Stack.PM {
		case PMODPM:
			n.pm = power.NewODPM(s, n.mac, sc.Stack.ODPM)
		case PMAlwaysActive, 0:
			n.pm = &power.AlwaysActive{Node: n.mac}
		default:
			return nil, fmt.Errorf("network: unknown PM kind %d", sc.Stack.PM)
		}

		env := &routing.Env{
			ID:        id,
			Sim:       s,
			MAC:       n.mac,
			PM:        n.pm,
			Bandwidth: bw,
			Run:       shared,
			Deliver: func(src int, payload any, bytes int) {
				if d, ok := payload.(*traffic.Datum); ok {
					nw.col.OnDeliver(d.Flow, bytes)
				}
			},
		}

		switch {
		case sc.Stack.Custom != nil:
			n.proto = sc.Stack.Custom(env)
			if n.proto == nil {
				return nil, fmt.Errorf("network: custom protocol factory returned nil")
			}
		default:
			if err := buildProtocol(n, env, sc.Stack); err != nil {
				return nil, err
			}
		}
		nw.nodes = append(nw.nodes, n)
	}
	return buildFlows(nw, sc, s)
}

// buildProtocol wires a standard protocol kind onto the node.
func buildProtocol(n *node, env *routing.Env, st Stack) error {
	switch st.Routing {
	case ProtoDSR:
		n.proto = routing.NewDSR(env, st.PowerControl)
	case ProtoMTPR:
		n.proto = routing.NewMTPR(env)
	case ProtoMTPRPlus:
		n.proto = routing.NewMTPRPlus(env)
	case ProtoDSRHRate:
		n.proto = routing.NewDSRH(env, true, st.PowerControl)
	case ProtoDSRHNoRate:
		n.proto = routing.NewDSRH(env, false, st.PowerControl)
	case ProtoDSDV:
		n.proto = routing.NewDSDV(env, st.PowerControl)
	case ProtoDSDVH:
		p := routing.NewDSDVH(env, st.PowerControl)
		if odpm, ok := n.pm.(*power.ODPM); ok {
			odpm.SetNotify(p.PMChanged)
		}
		n.proto = p
	case ProtoTITAN:
		n.proto = routing.NewTITAN(env, st.PowerControl)
	case ProtoStatic:
		n.proto = routing.NewStatic(env, st.Routes, st.PowerControl)
	default:
		return fmt.Errorf("network: unknown protocol kind %d", st.Routing)
	}
	return nil
}

// buildFlows validates and attaches the scenario's CBR sources.
func buildFlows(nw *Network, sc Scenario, s *sim.Simulator) (*Network, error) {
	for i, f := range sc.Flows {
		if f.ID == 0 {
			f.ID = i + 1
		}
		if f.Src < 0 || f.Src >= len(nw.nodes) || f.Dst < 0 || f.Dst >= len(nw.nodes) {
			return nil, fmt.Errorf("network: flow %d endpoints out of range", f.ID)
		}
		src := nw.nodes[f.Src]
		source, err := traffic.NewSource(s, f, src.proto.Send, nw.col, sc.Duration)
		if err != nil {
			return nil, err
		}
		nw.srcs = append(nw.srcs, source)
	}
	return nw, nil
}

// Run executes the scenario to its horizon and returns the metrics.
func Run(sc Scenario) (Results, error) {
	return RunContext(context.Background(), sc)
}

// RunContext executes the scenario like Run but aborts early (returning the
// context's error) when ctx is cancelled mid-run.
func RunContext(ctx context.Context, sc Scenario) (Results, error) {
	nw, err := Build(sc)
	if err != nil {
		return Results{}, err
	}
	return nw.ExecuteContext(ctx)
}

// ExecuteContext runs the wired network, polling ctx between event batches;
// a cancelled context abandons the run and returns the context's error.
func (nw *Network) ExecuteContext(ctx context.Context) (Results, error) {
	nw.coord.Start()
	for _, n := range nw.nodes {
		n.pm.Start()
		n.proto.Start()
	}
	for _, src := range nw.srcs {
		src.Start()
	}
	var lifetime *Lifetime
	if nw.sc.BatteryJ > 0 {
		lifetime = nw.watchLifetime(nw.sc.BatteryJ)
	}
	wallStart := time.Now()
	_, err := nw.sim.RunContext(ctx, nw.sc.Duration)
	wall := time.Since(wallStart).Seconds()
	// A cancelled run's events are counted, so its seconds are too (the two
	// make a rate); runs and speed-up are completed runs only.
	simWall.Add(wall)
	if err != nil {
		return Results{}, err
	}
	simRuns.Inc()
	if wall > 0 {
		simSpeedup.Observe(nw.sc.Duration.Seconds() / wall)
	}

	res := Results{
		Stack:    nw.sc.Stack.Name(),
		Duration: nw.sc.Duration,
		Events:   nw.sim.Events(),
		Lifetime: lifetime,
	}
	res.PerNode = make([]NodeResults, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		e := n.mac.Energy()
		res.Energy.Add(e)
		ms := n.mac.Stats()
		res.MAC.UnicastSent += ms.UnicastSent
		res.MAC.UnicastFailed += ms.UnicastFailed
		res.MAC.BroadcastSent += ms.BroadcastSent
		res.MAC.QueueDrops += ms.QueueDrops
		res.MAC.Retries += ms.Retries
		res.MAC.ATIMSent += ms.ATIMSent
		res.MAC.CollisionsSeen += ms.CollisionsSeen
		rs := n.proto.Stats()
		res.Routing.Add(rs)
		if rs.DataForwarded > 0 {
			res.Relays++
		}
		res.PerNode = append(res.PerNode, NodeResults{
			ID:        n.id,
			Pos:       n.mac.Pos(),
			Energy:    e,
			Forwarded: rs.DataForwarded,
			Delivered: rs.DataDelivered,
			Sent:      rs.DataSent,
			FinalMode: n.mac.PowerMode(),
		})
	}
	res.Sent = nw.col.Sent()
	res.Delivered = nw.col.Delivered()
	res.DeliveryRatio = nw.col.DeliveryRatio()
	res.DeliveredBits = nw.col.DeliveredBits()
	if tot := res.Energy.Total(); tot > 0 {
		res.EnergyGoodput = res.DeliveredBits / tot
	}
	res.TxEnergy = res.Energy.TxData + res.Energy.TxControl
	res.TxAmpEnergy = res.Energy.TxAmp
	return res, nil
}

// Summary renders the headline metrics as a human-readable block. For a
// replicated run the block ends with the cross-replicate mean ± CI95 of
// the headline metrics.
func (r Results) Summary() string {
	s := fmt.Sprintf(
		"stack:           %s\n"+
			"duration:        %v\n"+
			"sent/delivered:  %d/%d (delivery ratio %.3f)\n"+
			"energy goodput:  %.1f bit/J\n"+
			"network energy:  %.2f J (tx-data %.2f, tx-ctrl %.2f, rx %.2f, idle %.2f, sleep %.2f, switch %.2f)\n"+
			"radiated energy: %.2f J\n"+
			"relays:          %d\n"+
			"routing:         rreq %d, rrep %d, rerr %d, updates %d, fwd %d, dropped %d\n"+
			"mac:             unicast %d (failed %d), bcast %d, atim %d, retries %d, queue-drops %d, collisions %d\n",
		r.Stack, r.Duration, r.Sent, r.Delivered, r.DeliveryRatio,
		r.EnergyGoodput,
		r.Energy.Total(), r.Energy.TxData, r.Energy.TxControl, r.Energy.Rx,
		r.Energy.Idle, r.Energy.Sleep, r.Energy.Switch,
		r.TxAmpEnergy, r.Relays,
		r.Routing.RREQSent, r.Routing.RREPSent, r.Routing.RERRSent,
		r.Routing.UpdatesSent, r.Routing.DataForwarded, r.Routing.DataDropped,
		r.MAC.UnicastSent, r.MAC.UnicastFailed, r.MAC.BroadcastSent,
		r.MAC.ATIMSent, r.MAC.Retries, r.MAC.QueueDrops, r.MAC.CollisionsSeen)
	if rep := r.Replicates; rep != nil {
		s += fmt.Sprintf(
			"replicates:      %d (seeds %v)\n"+
				"  delivery:      %.3f ± %.3f\n"+
				"  goodput:       %.1f ± %.1f bit/J\n"+
				"  energy:        %.2f ± %.2f J\n",
			rep.N, rep.Seeds,
			rep.DeliveryRatio.Mean, rep.DeliveryRatio.CI95,
			rep.EnergyGoodput.Mean, rep.EnergyGoodput.CI95,
			rep.EnergyTotal.Mean, rep.EnergyTotal.CI95)
	}
	return s
}

// Node returns the id-th node's MAC (for tests and inspection tools).
func (nw *Network) Node(id int) *mac.MAC { return nw.nodes[id].mac }

// Protocol returns the id-th node's routing protocol.
func (nw *Network) Protocol(id int) routing.Protocol { return nw.nodes[id].proto }

// Sim exposes the simulator (for tests that drive time manually).
func (nw *Network) Sim() *sim.Simulator { return nw.sim }
