package eend

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"eend/internal/geom"
	"eend/internal/network"
	"eend/internal/obs"
	"eend/internal/radio"
	"eend/internal/topology"
	"eend/internal/traffic"
)

// Scenario is a fully specified, validated simulation run. Build one with
// NewScenario and execute it with Run; a Scenario is immutable after
// construction and safe to run from multiple goroutines (each Run wires an
// independent simulator).
type Scenario struct {
	sc network.Scenario
	// opts is the option list the scenario was built from, retained so
	// Replicate can re-apply it under a derived seed.
	opts []Option
	// replicates is the seed-replication factor (>= 1; see WithReplicates).
	replicates int
	// fpOnce/fp memoize Fingerprint: the scenario is immutable, and the
	// fingerprint sits on hot paths (cache scans, batch grouping,
	// per-candidate evaluation), so the canonical encoding is hashed once.
	fpOnce sync.Once
	fp     string
}

// Option configures a Scenario under construction.
type Option func(*builder) error

// builder accumulates options before validation.
type builder struct {
	sc         network.Scenario
	randFlows  []randomFlowSpec
	topo       *topology.Spec
	workloads  []Workload
	replicates int
}

// randomFlowSpec defers random-endpoint drawing until the seed and node
// count are final, so option order does not matter.
type randomFlowSpec struct {
	n, limit    int // limit 0: all nodes
	rate        float64
	packetBytes int
}

// positive reports whether a size or rate is a positive finite number: NaN
// and +Inf pass a plain x <= 0 check.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// WithSeed sets the random seed that fully determines the run (default 1).
func WithSeed(seed uint64) Option {
	return func(b *builder) error {
		b.sc.Seed = seed
		return nil
	}
}

// WithField sets the rectangular deployment area in meters (default
// 500x500).
func WithField(width, height float64) Option {
	return func(b *builder) error {
		if !positive(width) || !positive(height) {
			return fmt.Errorf("eend: field %gx%g is not positive", width, height)
		}
		b.sc.Field = geom.Field{Width: width, Height: height}
		return nil
	}
}

// ParseField reads a field in meters for WithField, as a square side ("500")
// or as "WxH" ("600x300").
func ParseField(spec string) (width, height float64, err error) {
	ws, hs, ok := strings.Cut(spec, "x")
	if !ok {
		hs = ws
	}
	w, err1 := strconv.ParseFloat(ws, 64)
	h, err2 := strconv.ParseFloat(hs, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad field %q (want side or WxH)", spec)
	}
	return w, h, nil
}

// WithNodes places n nodes uniformly at random in the field (default 50).
func WithNodes(n int) Option {
	return func(b *builder) error {
		if n <= 0 {
			return fmt.Errorf("eend: node count %d is not positive", n)
		}
		b.sc.Nodes = n
		b.sc.GridRows, b.sc.GridCols = 0, 0
		b.sc.Positions = nil
		return nil
	}
}

// WithGrid places rows x cols nodes on a regular grid instead of uniformly.
func WithGrid(rows, cols int) Option {
	return func(b *builder) error {
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("eend: grid %dx%d is not positive", rows, cols)
		}
		if rows > math.MaxInt/cols {
			return fmt.Errorf("eend: grid %dx%d overflows the node count", rows, cols)
		}
		b.sc.GridRows, b.sc.GridCols = rows, cols
		b.sc.Nodes = 0
		b.sc.Positions = nil
		return nil
	}
}

// WithPositions pins node placement exactly (one node per point).
func WithPositions(pts ...Point) Option {
	return func(b *builder) error {
		if len(pts) == 0 {
			return fmt.Errorf("eend: WithPositions needs at least one point")
		}
		b.sc.Positions = append([]geom.Point(nil), pts...)
		b.sc.Nodes = 0
		b.sc.GridRows, b.sc.GridCols = 0, 0
		return nil
	}
}

// WithCard selects the radio card model (default Cabletron, the paper's
// primary card).
func WithCard(c Card) Option {
	return func(b *builder) error {
		b.sc.Card = c
		return nil
	}
}

// WithBandwidth overrides the channel bit rate in bit/s (default 2 Mbit/s).
func WithBandwidth(bps float64) Option {
	return func(b *builder) error {
		if !positive(bps) {
			return fmt.Errorf("eend: bandwidth %g bit/s is not positive", bps)
		}
		b.sc.Bandwidth = bps
		return nil
	}
}

// WithStack configures the protocol stack from routing kind, PM policy and
// modifiers, e.g. WithStack(TITAN, ODPM, PowerControl()). The default stack
// (when WithStack is not given at all) is TITAN-PC over ODPM, the paper's
// winner; an omitted PM policy defaults to ODPM too, matching the HTTP
// surface — pass AlwaysActive explicitly for radios that never sleep.
func WithStack(opts ...StackOption) Option {
	return func(b *builder) error {
		st := network.Stack{}
		for _, o := range opts {
			o.applyStack(&st)
		}
		if st.Routing == 0 {
			return fmt.Errorf("eend: stack needs a routing kind (e.g. eend.TITAN)")
		}
		if st.PM == 0 {
			st.PM = network.PMODPM
		}
		b.sc.Stack = st
		return nil
	}
}

// WithDuration sets the simulated horizon (default 300 s).
func WithDuration(d time.Duration) Option {
	return func(b *builder) error {
		if d <= 0 {
			return fmt.Errorf("eend: duration %v is not positive", d)
		}
		b.sc.Duration = d
		return nil
	}
}

// WithFlows appends explicit CBR flows.
func WithFlows(flows ...Flow) Option {
	return func(b *builder) error {
		b.sc.Flows = append(b.sc.Flows, flows...)
		return nil
	}
}

// WithRandomFlows appends n CBR flows with distinct random endpoints drawn
// deterministically from the scenario seed, each at rate bit/s with
// packetBytes-byte packets, starting in the paper's 20-25 s window.
func WithRandomFlows(n int, rate float64, packetBytes int) Option {
	return withRandomFlows(n, 0, rate, packetBytes)
}

// WithRandomFlowsAmong is WithRandomFlows with endpoints restricted to the
// first limit nodes — the paper's Table 2 methodology, where density grows
// but flow endpoints stay fixed.
func WithRandomFlowsAmong(n, limit int, rate float64, packetBytes int) Option {
	if limit < 2 {
		return func(*builder) error {
			return fmt.Errorf("eend: random-flow endpoint limit %d needs at least 2 nodes", limit)
		}
	}
	return withRandomFlows(n, limit, rate, packetBytes)
}

func withRandomFlows(n, limit int, rate float64, packetBytes int) Option {
	return func(b *builder) error {
		if n <= 0 {
			return fmt.Errorf("eend: random flow count %d is not positive", n)
		}
		if !positive(rate) {
			return fmt.Errorf("eend: flow rate %g bit/s is not positive", rate)
		}
		if packetBytes <= 0 {
			return fmt.Errorf("eend: packet size %d B is not positive", packetBytes)
		}
		b.randFlows = append(b.randFlows, randomFlowSpec{n: n, limit: limit, rate: rate, packetBytes: packetBytes})
		return nil
	}
}

// WithBattery gives every node an energy budget in joules and enables the
// Lifetime metrics in Results.
func WithBattery(joules float64) Option {
	return func(b *builder) error {
		if !positive(joules) {
			return fmt.Errorf("eend: battery budget %g J is not positive", joules)
		}
		b.sc.BatteryJ = joules
		return nil
	}
}

// NewScenario builds and validates a scenario from functional options.
// Unset options take the paper's defaults: seed 1, 50 nodes uniformly
// placed in a 500x500 m field, Cabletron cards, the TITAN-PC/ODPM stack,
// and a 300 s horizon. Options may be given in any order.
func NewScenario(opts ...Option) (*Scenario, error) {
	b := &builder{sc: network.Scenario{
		Seed:  1,
		Field: geom.Field{Width: 500, Height: 500},
		Nodes: 50,
		Card:  radio.Cabletron,
		Stack: network.Stack{
			Routing:      network.ProtoTITAN,
			PM:           network.PMODPM,
			PowerControl: true,
		},
		Duration: 300 * time.Second,
	}}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("eend: nil option")
		}
		if err := opt(b); err != nil {
			return nil, err
		}
	}
	// Topology placement is materialized first (it only needs the final
	// seed, field and node count), so the generated positions take part in
	// flow validation and the canonical encoding below.
	if b.topo != nil {
		switch {
		case b.sc.Positions != nil:
			return nil, fmt.Errorf("eend: WithTopology conflicts with WithPositions")
		case b.sc.GridRows > 0 || b.sc.GridCols > 0:
			return nil, fmt.Errorf("eend: WithTopology conflicts with WithGrid (use eend.GridTopology)")
		}
		b.sc.Positions = topology.Generate(*b.topo, b.sc.Field, b.sc.Nodes, topologyRNG(b.sc.Seed))
		b.sc.Nodes = 0
	}
	nodes := b.nodeCount()
	// Random flows are drawn last so the seed and node count options have
	// settled, whatever order they were given in.
	rng := network.EndpointRNG(b.sc.Seed)
	for _, spec := range b.randFlows {
		limit := spec.limit
		if limit == 0 {
			limit = nodes
		} else if limit > nodes {
			// Clamping here would silently change the endpoint draw and
			// break the fixed-endpoints-across-densities methodology the
			// option exists for (Table 2).
			return nil, fmt.Errorf("eend: random-flow endpoint limit %d exceeds node count %d", limit, nodes)
		}
		if limit < 2 {
			return nil, fmt.Errorf("eend: random flows need at least 2 nodes, have %d", limit)
		}
		base := len(b.sc.Flows)
		for i, f := range traffic.RandomFlows(rng, spec.n, limit, spec.rate, spec.packetBytes) {
			f.ID = base + i + 1
			b.sc.Flows = append(b.sc.Flows, f)
		}
	}
	// Workloads draw from their own stream so adding one never shifts the
	// endpoints the random flows above chose.
	wrng := workloadRNG(b.sc.Seed)
	for _, w := range b.workloads {
		flows, err := w.materialize(wrng, nodes)
		if err != nil {
			return nil, err
		}
		base := len(b.sc.Flows)
		for i, f := range flows {
			f.ID = base + i + 1
			b.sc.Flows = append(b.sc.Flows, f)
		}
	}
	if err := b.validate(nodes); err != nil {
		return nil, err
	}
	replicates := b.replicates
	if replicates <= 0 {
		replicates = 1
	}
	return &Scenario{
		sc:         b.sc,
		opts:       append([]Option(nil), opts...),
		replicates: replicates,
	}, nil
}

// nodeCount resolves the effective node count of the placement options.
func (b *builder) nodeCount() int {
	switch {
	case b.sc.Positions != nil:
		return len(b.sc.Positions)
	case b.sc.GridRows > 0 && b.sc.GridCols > 0:
		return b.sc.GridRows * b.sc.GridCols
	default:
		return b.sc.Nodes
	}
}

// validate rejects configurations the engine would reject at Build or,
// worse, mis-simulate.
func (b *builder) validate(nodes int) error {
	if err := b.sc.Card.Validate(); err != nil {
		return err
	}
	if nodes <= 0 {
		return fmt.Errorf("eend: scenario has no nodes")
	}
	for _, f := range b.sc.Flows {
		if err := f.Validate(); err != nil {
			return err
		}
		if f.Src < 0 || f.Src >= nodes || f.Dst < 0 || f.Dst >= nodes {
			return fmt.Errorf("eend: flow %d endpoints (%d,%d) out of range [0,%d)", f.ID, f.Src, f.Dst, nodes)
		}
	}
	if b.sc.Stack.Routing == network.ProtoStatic {
		if len(b.sc.Stack.Routes) == 0 {
			return fmt.Errorf("eend: static stack needs at least one route")
		}
		for i, r := range b.sc.Stack.Routes {
			if len(r) == 0 {
				return fmt.Errorf("eend: static route %d is empty", i)
			}
			for j, v := range r {
				if v < 0 || v >= nodes {
					return fmt.Errorf("eend: static route %d node %d out of range [0,%d)", i, v, nodes)
				}
				if j > 0 && r[j-1] == v {
					return fmt.Errorf("eend: static route %d repeats node %d", i, v)
				}
			}
		}
	}
	return nil
}

// Run wires the network and executes the scenario to its horizon.
// Cancellation is polled between event batches, so a cancelled ctx aborts
// even an hour-long Full-scale run promptly and returns the context's
// error. A scenario built with WithReplicates(n > 1) runs once per derived
// seed and returns the first replicate's Results with the cross-replicate
// mean/CI95 summary attached (see Results.Replicates).
func (s *Scenario) Run(ctx context.Context) (*Results, error) {
	if s.Replicates() > 1 {
		return s.runReplicated(ctx)
	}
	// The span brackets the run without touching it: the tracer observes
	// wall time only, so a traced run's Results (and fingerprint-keyed
	// cache entries) are bit-identical to an untraced one's.
	tr := obs.TracerFrom(ctx)
	sp := tr.Start(obs.Span{}, "sim", s.Fingerprint())
	res, err := network.RunContext(ctx, s.sc)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, err
	}
	sp.End(obs.A("fp", s.Fingerprint()), obs.AInt("events", int64(res.Events)))
	return &res, nil
}

// Seed returns the scenario's random seed.
func (s *Scenario) Seed() uint64 { return s.sc.Seed }

// NodeCount returns the number of simulated nodes.
func (s *Scenario) NodeCount() int {
	b := builder{sc: s.sc}
	return b.nodeCount()
}

// StackName returns the display label of the protocol stack under test.
func (s *Scenario) StackName() string { return s.sc.Stack.Name() }

// Duration returns the simulated horizon.
func (s *Scenario) Duration() time.Duration { return s.sc.Duration }

// Flows returns a copy of the scenario's traffic flows (explicit and
// materialized random ones).
func (s *Scenario) Flows() []Flow {
	return append([]Flow(nil), s.sc.Flows...)
}

// Card returns the radio card model under test.
func (s *Scenario) Card() Card { return s.sc.Card }

// Field returns the deployment area.
func (s *Scenario) Field() Field { return s.sc.Field }

// BatteryJ returns the per-node energy budget in joules, or 0 when nodes
// are unconstrained (WithBattery not given).
func (s *Scenario) BatteryJ() float64 { return s.sc.BatteryJ }

// Bandwidth returns the configured channel bit rate in bit/s, or 0 when the
// engine default (2 Mbit/s) applies.
func (s *Scenario) Bandwidth() float64 { return s.sc.Bandwidth }

// Positions returns a copy of the scenario's materialized node placement:
// non-nil for scenarios built with WithPositions or WithTopology (which
// materialize at NewScenario time), nil when placement is drawn by the
// engine at run time (WithNodes' uniform default, WithGrid). The opt
// subsystem derives design-problem graphs from these positions.
func (s *Scenario) Positions() []Point {
	if s.sc.Positions == nil {
		return nil
	}
	return append([]Point(nil), s.sc.Positions...)
}

// With derives a new Scenario by re-applying the receiver's options
// followed by extra ones — later options win, so With(WithSeed(9)) is "the
// same scenario under seed 9". Seed-dependent draws (placement, endpoints,
// jitter) are redrawn under the final configuration, exactly as if the
// combined option list had been passed to NewScenario.
func (s *Scenario) With(extra ...Option) (*Scenario, error) {
	opts := make([]Option, 0, len(s.opts)+len(extra))
	opts = append(opts, s.opts...)
	opts = append(opts, extra...)
	return NewScenario(opts...)
}

// canonicalVersion tags the canonical encoding. Bump it whenever a change
// to the simulator makes equal-looking scenarios produce different results
// (new Scenario field, changed random-stream derivation, ...), so stale
// cache entries stop matching instead of being served.
const canonicalVersion = "eend.scenario/2"

// Canonical returns the scenario's canonical encoding: a versioned,
// line-oriented text rendering of every field that affects simulation
// output, with deterministic number formatting. Two Scenarios have equal
// encodings exactly when they would produce identical Results; the
// encoding (and therefore Fingerprint) is stable across processes,
// platforms and repeated runs.
func (s *Scenario) Canonical() string { return string(s.appendCanonical()) }

// canonicalText accumulates the canonical encoding in one buffer: numbers
// are appended in place, never formatted into strings of their own. Every
// method writes a literal prefix and then its values.
type canonicalText []byte

func (c *canonicalText) str(v string) { *c = append(*c, v...) }

func (c *canonicalText) flag(prefix string, v bool) {
	*c = strconv.AppendBool(append(*c, prefix...), v)
}

// ints writes the values in decimal, separated by sep.
func (c *canonicalText) ints(prefix string, sep byte, vs ...int64) {
	c.str(prefix)
	for i, v := range vs {
		if i > 0 {
			*c = append(*c, sep)
		}
		*c = strconv.AppendInt(*c, v, 10)
	}
}

// nums writes the values in their shortest round-trip form, comma-separated.
func (c *canonicalText) nums(prefix string, vs ...float64) {
	c.str(prefix)
	for i, v := range vs {
		if i > 0 {
			*c = append(*c, ',')
		}
		*c = strconv.AppendFloat(*c, v, 'g', -1, 64)
	}
}

// appendCanonical renders Canonical's text.
func (s *Scenario) appendCanonical() []byte {
	sc, st, card := &s.sc, &s.sc.Stack, &s.sc.Card
	size := 320 + len(card.Name) + len(st.Label) + 40*len(sc.Positions) + 72*len(sc.Flows)
	for _, r := range st.Routes {
		size += 16 + 8*len(r)
	}
	w := make(canonicalText, 0, size)

	w.str(canonicalVersion)
	w.str("\nseed=")
	w = strconv.AppendUint(w, sc.Seed, 10)
	w.nums("\nfield=", sc.Field.Width, sc.Field.Height)
	switch {
	case sc.Positions != nil:
		w.str("\nplacement=positions:")
		sep := ""
		for _, p := range sc.Positions {
			w.nums(sep, p.X, p.Y)
			sep = ";"
		}
	case sc.GridRows > 0 && sc.GridCols > 0:
		w.ints("\nplacement=grid:", 'x', int64(sc.GridRows), int64(sc.GridCols))
	default:
		w.ints("\nplacement=uniform:", 0, int64(sc.Nodes))
	}
	w.str("\ncard=")
	w.str(card.Name)
	w.nums(",", card.Idle, card.Recv, card.Sleep, card.Base, card.Alpha, card.PathLossExp, card.Range, card.SwitchEnergy)
	w.nums("\nbandwidth=", sc.Bandwidth)
	w.ints("\nstack=", ',', int64(st.Routing), int64(st.PM))
	w.flag(",pc=", st.PowerControl)
	w.flag(",span=", st.AdvertisedWindow)
	w.flag(",perfect=", st.PerfectSleep)
	w.ints(",odpm=", '/', st.ODPM.DataTimeout.Nanoseconds(), st.ODPM.RouteTimeout.Nanoseconds())
	w.flag(",custom=", st.Custom != nil)
	w.str(",label=")
	w.str(st.Label)
	// Static routes are part of simulation output, so they are part of the
	// encoding; the lines are emitted only when routes are pinned, which
	// keeps every pre-existing scenario's encoding (and fingerprint) stable.
	for i, r := range st.Routes {
		w.ints("\nroute=", 0, int64(i))
		w.str(":")
		sep := ""
		for _, v := range r {
			w.ints(sep, 0, int64(v))
			sep = "-"
		}
	}
	w.ints("\nduration=", 0, sc.Duration.Nanoseconds())
	w.nums("\nbattery=", sc.BatteryJ)
	w.ints("\nreplicates=", 0, int64(s.Replicates()))
	for _, f := range sc.Flows {
		w.ints("\nflow=", ',', int64(f.ID), int64(f.Src), int64(f.Dst))
		w.nums(",", f.Rate)
		w.ints(",", ',', int64(f.PacketBytes), f.StartMin.Nanoseconds(), f.StartMax.Nanoseconds(), f.Stop.Nanoseconds())
	}
	w.str("\n")
	return w
}

// Fingerprint returns the hex SHA-256 of the scenario's canonical
// encoding: a content address under which the scenario's Results can be
// cached (see eend/sweep) and compared across processes. Scenarios built
// by NewScenario are always fingerprintable; the internal experiments'
// custom-protocol stacks are not expressible through the facade and so
// never reach here.
func (s *Scenario) Fingerprint() string {
	s.fpOnce.Do(func() {
		sum := sha256.Sum256(s.appendCanonical())
		s.fp = hex.EncodeToString(sum[:])
	})
	return s.fp
}
