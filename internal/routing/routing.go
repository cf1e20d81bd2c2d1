// Package routing implements the paper's six routing protocols on top of the
// MAC:
//
//   - DSR: reactive shortest-path source routing (the baseline relay
//     selector for the idling-energy-first approach, Section 4.3);
//   - MTPR and MTPR+: reactive energy-aware routing with the cost functions
//     of Eqs. 10-11 (communication-energy-first, Section 4.1);
//   - DSRH rate/norate: reactive joint optimization using the h(u,v,r) cost
//     of Eq. 12 (Section 4.2);
//   - DSDV and DSDVH: proactive distance vector, hop count and h-cost
//     metrics respectively (Section 4.2);
//   - TITAN: DSR-style discovery with backbone-biased probabilistic RREQ
//     participation (Section 4.3, [21]).
//
// An orthogonal power-control (PC) flag makes a protocol transmit data
// frames at the per-neighbor minimum power learned from the RTS/CTS
// exchange; without it data goes at maximum power.
package routing

import (
	"math/rand/v2"
	"time"

	"eend/internal/mac"
	"eend/internal/power"
	"eend/internal/sim"
)

// Env is the per-node environment a protocol runs in.
type Env struct {
	ID  int
	Sim *sim.Simulator
	MAC *mac.MAC
	PM  power.Manager
	// Deliver hands a received application payload to the local sink.
	Deliver func(src int, payload any, bytes int)
	// Bandwidth is the channel bit rate B used by the h(u,v,r) cost.
	Bandwidth float64
	// Run is the state the run's nodes share. It is required: network.Build
	// sets it, and an Env built by hand needs NewRunState.
	Run *RunState
}

// RunState is what a run's nodes share at the routing layer: the send-state
// pool (ARCHITECTURE "Send state") and the flood table ("Flood state").
// network.Build gives every node the same one. The zero value is ready.
type RunState struct {
	sends  sendPool
	floods floodTable
}

// NewRunState returns a run's shared state, flood arrays sized for n nodes.
func NewRunState(n int) *RunState { return &RunState{floods: floodTable{nodes: n}} }

// RNG returns the simulation RNG.
func (e *Env) RNG() *rand.Rand { return e.Sim.RNG() }

// Protocol is a network-layer routing protocol instance bound to one node.
type Protocol interface {
	// Start schedules the protocol's initial activity.
	Start()
	// Send originates an application payload of the given size to dst.
	// rate is the flow's bit rate (bit/s) when known, else 0.
	Send(dst int, bytes int, payload any, rate float64)
	// HandlePacket processes a network-layer packet handed up by the MAC.
	HandlePacket(from int, pkt *mac.Packet)
	// Stats returns the protocol counters.
	Stats() Stats
}

// Stats counts routing-layer activity on one node.
type Stats struct {
	DataSent      uint64 `json:"data_sent"`      // packets originated here
	DataForwarded uint64 `json:"data_forwarded"` // packets relayed here
	DataDelivered uint64 `json:"data_delivered"` // packets delivered to the local sink
	DataDropped   uint64 `json:"data_dropped"`   // no-route, buffer, TTL or link-failure drops
	RREQSent      uint64 `json:"rreq_sent"`
	RREPSent      uint64 `json:"rrep_sent"`
	RERRSent      uint64 `json:"rerr_sent"`
	UpdatesSent   uint64 `json:"updates_sent"` // DSDV(H) route updates broadcast
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.DataSent += o.DataSent
	s.DataForwarded += o.DataForwarded
	s.DataDelivered += o.DataDelivered
	s.DataDropped += o.DataDropped
	s.RREQSent += o.RREQSent
	s.RREPSent += o.RREPSent
	s.RERRSent += o.RERRSent
	s.UpdatesSent += o.UpdatesSent
}

// Network-layer sizes in bytes.
const (
	DataHeaderBytes = 20 // fixed IP-like header
	PerHopBytes     = 4  // per-address overhead in source routes / paths
	rreqBaseBytes   = 16
	rrepBaseBytes   = 16
	rerrBytes       = 20
	updateBaseBytes = 8
	perEntryBytes   = 12 // per destination entry in a DSDV update
)

// dataPacket is the network-layer data unit.
type dataPacket struct {
	Src, Dst int
	Seq      uint64
	AppBytes int
	Payload  any
	Rate     float64 // flow rate for DSRH(rate); 0 if unknown

	// Source routing (DSR family): full path Src..Dst and the index of the
	// node currently holding the packet. DSDV leaves Route nil.
	Route []int
	Hop   int

	TTL int
}

// bytes returns the on-air network-layer size of the packet.
func (p *dataPacket) bytes() int {
	return DataHeaderBytes + p.AppBytes + PerHopBytes*len(p.Route)
}

// jitter returns a uniform random delay in [0, max).
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	return time.Duration(rng.Int64N(int64(max)))
}

// indexOf returns the position of id in path, or -1.
func indexOf(path []int, id int) int {
	for i, v := range path {
		if v == id {
			return i
		}
	}
	return -1
}

// hasLink reports whether path contains u,v adjacently in either order.
func hasLink(path []int, u, v int) bool {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if (a == u && b == v) || (a == v && b == u) {
			return true
		}
	}
	return false
}
