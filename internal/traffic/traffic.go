// Package traffic provides the constant-bit-rate (CBR) sources and the
// delivery accounting used throughout the paper's evaluation: flows of
// fixed-size packets (128 B) at 2-200 Kbit/s, starting at a random time in
// a configured window.
package traffic

import (
	"fmt"
	"math/rand/v2"
	"time"

	"eend/internal/sim"
)

// Flow describes one CBR flow.
type Flow struct {
	ID          int     `json:"id"`
	Src         int     `json:"src"`
	Dst         int     `json:"dst"`
	Rate        float64 `json:"rate_bps"` // bit/s
	PacketBytes int     `json:"packet_bytes"`
	// StartMin/StartMax bound the random start time (paper: 20-25 s).
	StartMin time.Duration `json:"start_min_ns"`
	StartMax time.Duration `json:"start_max_ns"`
	// Stop, when positive, ends origination at that simulation time instead
	// of the horizon. Bursty workloads model each on-period as one flow
	// segment bounded by Stop.
	Stop time.Duration `json:"stop_ns,omitempty"`
}

// Interval returns the inter-packet gap.
func (f Flow) Interval() time.Duration {
	if f.Rate <= 0 || f.PacketBytes <= 0 {
		return 0
	}
	bits := float64(f.PacketBytes * 8)
	return time.Duration(bits / f.Rate * float64(time.Second))
}

// Validate reports configuration errors.
func (f Flow) Validate() error {
	switch {
	case f.Src == f.Dst:
		return fmt.Errorf("traffic: flow %d has src == dst", f.ID)
	case f.Rate <= 0:
		return fmt.Errorf("traffic: flow %d has non-positive rate", f.ID)
	case f.PacketBytes <= 0:
		return fmt.Errorf("traffic: flow %d has non-positive packet size", f.ID)
	case f.StartMax < f.StartMin:
		return fmt.Errorf("traffic: flow %d has StartMax < StartMin", f.ID)
	case f.Stop != 0 && f.Stop <= f.StartMax:
		return fmt.Errorf("traffic: flow %d stops at %v, before its start window ends", f.ID, f.Stop)
	}
	return nil
}

// RandomFlows draws n CBR flows with distinct random endpoints among nodes
// [0, nodes), each at rate bit/s with packetBytes-byte packets, starting at
// a random time in the paper's 20-25 s window. Flow IDs are 1-based. The
// caller supplies the RNG so endpoint choice stays deterministic per seed
// (see network.EndpointRNG).
func RandomFlows(rng *rand.Rand, n, nodes int, rate float64, packetBytes int) []Flow {
	if n <= 0 {
		return nil
	}
	if nodes < 2 {
		panic("traffic: RandomFlows needs at least 2 nodes for distinct endpoints")
	}
	flows := make([]Flow, n)
	for i := range flows {
		src := rng.IntN(nodes)
		dst := rng.IntN(nodes)
		for dst == src {
			dst = rng.IntN(nodes)
		}
		flows[i] = Flow{
			ID: i + 1, Src: src, Dst: dst,
			Rate: rate, PacketBytes: packetBytes,
			StartMin: startWindowMin, StartMax: startWindowMax,
		}
	}
	return flows
}

// Datum is the application payload carried by each CBR packet.
type Datum struct {
	Flow int
	Seq  uint64
}

// SendFunc originates an application packet at the flow source.
type SendFunc func(dst int, bytes int, payload any, rate float64)

// Collector aggregates per-flow delivery statistics.
type Collector struct {
	sent      map[int]uint64
	delivered map[int]uint64
	bits      map[int]float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		sent:      make(map[int]uint64),
		delivered: make(map[int]uint64),
		bits:      make(map[int]float64),
	}
}

// OnSend records an originated packet.
func (c *Collector) OnSend(flow int) { c.sent[flow]++ }

// OnDeliver records a packet arriving at its sink.
func (c *Collector) OnDeliver(flow int, bytes int) {
	c.delivered[flow]++
	c.bits[flow] += float64(bytes * 8)
}

// Sent returns the total packets originated (all flows).
func (c *Collector) Sent() uint64 {
	var n uint64
	for _, v := range c.sent {
		n += v
	}
	return n
}

// Delivered returns the total packets delivered (all flows).
func (c *Collector) Delivered() uint64 {
	var n uint64
	for _, v := range c.delivered {
		n += v
	}
	return n
}

// DeliveredBits returns the total application bits delivered.
func (c *Collector) DeliveredBits() float64 {
	var b float64
	for _, v := range c.bits {
		b += v
	}
	return b
}

// DeliveryRatio returns delivered/sent over all flows (1 if nothing sent).
func (c *Collector) DeliveryRatio() float64 {
	s := c.Sent()
	if s == 0 {
		return 1
	}
	return float64(c.Delivered()) / float64(s)
}

// FlowDeliveryRatio returns the ratio for one flow.
func (c *Collector) FlowDeliveryRatio(flow int) float64 {
	if c.sent[flow] == 0 {
		return 1
	}
	return float64(c.delivered[flow]) / float64(c.sent[flow])
}

// Source drives one CBR flow: it schedules packet origination on the
// simulator until the horizon and reports each send to the collector.
type Source struct {
	sim    *sim.Simulator
	flow   Flow
	send   SendFunc
	col    *Collector
	until  sim.Time
	seq    uint64
	emitFn func() // pre-bound emit so per-packet rescheduling never allocates
}

// NewSource creates a CBR source; Start must be called to begin.
func NewSource(s *sim.Simulator, flow Flow, send SendFunc, col *Collector, until sim.Time) (*Source, error) {
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	if send == nil {
		return nil, fmt.Errorf("traffic: flow %d has nil send func", flow.ID)
	}
	src := &Source{sim: s, flow: flow, send: send, col: col, until: until}
	src.emitFn = src.emit
	return src, nil
}

// Start schedules the first packet at a random time in the start window.
func (s *Source) Start() {
	start := s.flow.StartMin
	if w := s.flow.StartMax - s.flow.StartMin; w > 0 {
		start += time.Duration(s.sim.RNG().Int64N(int64(w)))
	}
	s.sim.ScheduleFor(sim.LayerTraffic, start, s.emitFn)
}

func (s *Source) emit() {
	if s.sim.Now() >= s.until {
		return
	}
	if s.flow.Stop > 0 && s.sim.Now() >= s.flow.Stop {
		return
	}
	s.seq++
	if s.col != nil {
		s.col.OnSend(s.flow.ID)
	}
	s.send(s.flow.Dst, s.flow.PacketBytes, &Datum{Flow: s.flow.ID, Seq: s.seq}, s.flow.Rate)
	s.sim.ScheduleFor(sim.LayerTraffic, s.flow.Interval(), s.emitFn)
}

// Sent returns the number of packets this source has originated.
func (s *Source) Sent() uint64 { return s.seq }
