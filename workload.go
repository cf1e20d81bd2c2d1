package eend

import (
	"fmt"
	"math/rand/v2"
	"time"

	"eend/internal/traffic"
)

// WorkloadKind selects a traffic-pattern generator.
type WorkloadKind int

// The modelled workload families.
const (
	// WorkloadCBR is the paper's constant-bit-rate traffic with random
	// distinct endpoints (the generator behind WithRandomFlows, as a
	// sweepable vocabulary item).
	WorkloadCBR WorkloadKind = iota + 1
	// WorkloadBursty gives each endpoint pair periodic on/off bursts,
	// exercising power-management wake/sleep cycling.
	WorkloadBursty
	// WorkloadConvergecast sends every flow to one sink node — the
	// many-to-one pattern of sensor-network data collection.
	WorkloadConvergecast
)

// workloadKindNames maps kinds to their short CLI/spec names, in enum order.
var workloadKindNames = map[WorkloadKind]string{
	WorkloadCBR:          "cbr",
	WorkloadBursty:       "bursty",
	WorkloadConvergecast: "convergecast",
}

// String returns the kind's short name (the one ParseWorkloadKind accepts).
func (k WorkloadKind) String() string {
	if n, ok := workloadKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("WorkloadKind(%d)", int(k))
}

// ParseWorkloadKind resolves a workload short name (see WorkloadKindNames).
func ParseWorkloadKind(name string) (WorkloadKind, error) {
	for k, n := range workloadKindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("eend: unknown workload %q (want one of %v)", name, WorkloadKindNames())
}

// WorkloadKindNames lists the short names accepted by ParseWorkloadKind in
// enum order.
func WorkloadKindNames() []string {
	out := make([]string, 0, len(workloadKindNames))
	for k := WorkloadCBR; k <= WorkloadConvergecast; k++ {
		out = append(out, workloadKindNames[k])
	}
	return out
}

// Workload declaratively describes one generated traffic pattern for
// WithWorkload. Flows, RateBps and PacketBytes apply to every kind; the
// remaining knobs are kind-specific and default sensibly when zero.
type Workload struct {
	Kind        WorkloadKind
	Flows       int     // flow count (sources, for convergecast)
	RateBps     float64 // per-flow rate in bit/s
	PacketBytes int

	// Bursty knobs: each flow pair emits Bursts on-periods of BurstLen,
	// opened Period apart (defaults: 3 bursts of 20 s every 60 s).
	Bursts   int
	BurstLen time.Duration
	Period   time.Duration

	// Sink is the convergecast destination node (default node 0).
	Sink int
}

// NewWorkload is a convenience constructor for the common fields.
func NewWorkload(kind WorkloadKind, flows int, rateBps float64, packetBytes int) Workload {
	return Workload{Kind: kind, Flows: flows, RateBps: rateBps, PacketBytes: packetBytes}
}

// withDefaults resolves the zero-value knobs.
func (w Workload) withDefaults() Workload {
	if w.Kind == WorkloadBursty {
		if w.Bursts == 0 {
			w.Bursts = 3
		}
		if w.BurstLen == 0 {
			w.BurstLen = 20 * time.Second
		}
		if w.Period == 0 {
			w.Period = 60 * time.Second
		}
	}
	return w
}

// validate rejects workloads the generators would mis-draw.
func (w Workload) validate() error {
	if _, ok := workloadKindNames[w.Kind]; !ok {
		return fmt.Errorf("eend: unknown workload kind %d", int(w.Kind))
	}
	if w.Flows <= 0 {
		return fmt.Errorf("eend: workload flow count %d is not positive", w.Flows)
	}
	if !positive(w.RateBps) {
		return fmt.Errorf("eend: workload rate %g bit/s is not positive", w.RateBps)
	}
	if w.PacketBytes <= 0 {
		return fmt.Errorf("eend: workload packet size %d B is not positive", w.PacketBytes)
	}
	if w.Kind == WorkloadBursty {
		if w.Bursts <= 0 || w.BurstLen <= 0 || w.Period <= 0 {
			return fmt.Errorf("eend: bursty workload needs positive bursts/length/period")
		}
		if w.Period < w.BurstLen {
			return fmt.Errorf("eend: bursty workload period %v shorter than burst length %v", w.Period, w.BurstLen)
		}
	}
	if w.Kind == WorkloadConvergecast && w.Sink < 0 {
		return fmt.Errorf("eend: convergecast sink %d is negative", w.Sink)
	}
	return nil
}

// workloadRNG is the dedicated traffic-pattern stream for a seed, decoupled
// from the flow-endpoint stream so adding a workload never shifts the
// endpoints WithRandomFlows draws.
func workloadRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b9))
}

// materialize draws the workload's flows for the final node count. The
// workload was defaulted and validated by WithWorkload.
func (w Workload) materialize(rng *rand.Rand, nodes int) ([]Flow, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("eend: workload needs at least 2 nodes, have %d", nodes)
	}
	switch w.Kind {
	case WorkloadCBR:
		return traffic.RandomFlows(rng, w.Flows, nodes, w.RateBps, w.PacketBytes), nil
	case WorkloadBursty:
		return traffic.BurstyFlows(rng, w.Flows, nodes, w.RateBps, w.PacketBytes, w.Bursts, w.BurstLen, w.Period), nil
	case WorkloadConvergecast:
		flows, err := w.convergecast(rng, nodes)
		if err != nil {
			return nil, fmt.Errorf("eend: %w", err)
		}
		return flows, nil
	}
	return nil, fmt.Errorf("eend: unknown workload kind %d", int(w.Kind))
}

func (w Workload) convergecast(rng *rand.Rand, nodes int) ([]Flow, error) {
	return traffic.ConvergecastFlows(rng, w.Flows, nodes, w.Sink, w.RateBps, w.PacketBytes)
}

// WithWorkload appends a generated traffic pattern. Flows are drawn when
// NewScenario returns, from the final seed and node count (so option order
// does not matter) and from a dedicated workload random stream. Multiple
// workloads compose; their flows are numbered after any explicit and
// random flows.
func WithWorkload(w Workload) Option {
	return func(b *builder) error {
		w = w.withDefaults()
		if err := w.validate(); err != nil {
			return err
		}
		b.workloads = append(b.workloads, w)
		return nil
	}
}
