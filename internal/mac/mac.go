// Package mac implements a simplified IEEE 802.11 DCF MAC with power-save
// mode (PSM), sufficient to reproduce the dynamics the paper's evaluation
// depends on:
//
//   - CSMA/CA with binary-exponential backoff and a NAV set by overheard
//     RTS/CTS, RTS/CTS/DATA/ACK unicast exchanges with a retry limit, and
//     unacknowledged broadcasts;
//   - IEEE PSM with synchronized beacon intervals (0.3 s) and ATIM windows
//     (0.02 s): power-saving nodes sleep outside the ATIM window unless
//     traffic was announced to them, in which case they stay awake for the
//     whole beacon interval (the behaviour that makes broadcast-heavy
//     protocols expensive), with an optional Span-style advertised-traffic
//     window that lets nodes sleep again once announced broadcasts arrive;
//   - transmission power control (TPC): the CTS reports the power the data
//     frame actually needs, so senders learn per-neighbor minimum powers;
//   - full energy accounting through radio.Radio, control frames at maximum
//     power per the paper's Eq. 2.
//
// Simplifications (documented in DESIGN.md): beacons are timing events, not
// frames; a sender learns a power-save neighbor's wake state from its own
// successful ATIM handshake in the current interval; peer power-management
// mode is read directly rather than gossiped.
package mac

import (
	"fmt"
	"time"

	"eend/internal/geom"
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/sim"
)

// PowerMode is the power-management policy state of a node.
type PowerMode int

// Power-management modes (paper Section 2.2).
const (
	AM  PowerMode = iota + 1 // active mode: radio idles between frames
	PSM                      // power-save mode: radio sleeps outside ATIM windows
)

// String implements fmt.Stringer.
func (m PowerMode) String() string {
	switch m {
	case AM:
		return "AM"
	case PSM:
		return "PSM"
	default:
		return fmt.Sprintf("PowerMode(%d)", int(m))
	}
}

// MarshalText encodes the mode as its symbolic name ("AM" or "PSM"), which
// encoding/json writes as a JSON string.
func (m PowerMode) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText decodes a symbolic power-mode name.
func (m *PowerMode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "AM":
		*m = AM
	case "PSM":
		*m = PSM
	default:
		return fmt.Errorf("mac: unknown power mode %q", b)
	}
	return nil
}

// PacketKind classifies network-layer packets for energy accounting:
// routing-control packets are billed as control energy and transmitted at
// maximum power (paper Eq. 2).
type PacketKind int

// Packet kinds.
const (
	PacketData PacketKind = iota + 1
	PacketControl
)

// Packet is a network-layer datagram handed to the MAC.
type Packet struct {
	Kind    PacketKind
	Bytes   int // network-layer size in bytes
	Payload any
}

// Config holds what a scenario decides about a MAC; everything else is the
// model's fixed parameters below.
type Config struct {
	Card radio.Card
	// AdvertisedWindow enables the Span-style improvement (Section 5.2.1):
	// nodes may sleep once all broadcasts announced to them have arrived.
	AdvertisedWindow bool
}

// The model's fixed parameters: 802.11 DSSS timing and the paper's PSM
// schedule (Section 5 varies the stack, the card and the deployment, never
// these).
const (
	slotTime       = 20 * time.Microsecond // backoff slot
	sifs           = 10 * time.Microsecond
	difs           = 50 * time.Microsecond
	cwMin          = 31 // initial contention window (slots)
	cwMax          = 1023
	retryLimit     = 7  // max transmission attempts for unicast frames
	queueCap       = 64 // outgoing queue capacity (packets)
	BeaconInterval = 300 * time.Millisecond
	ATIMWindow     = 20 * time.Millisecond // announcement window at each beacon
)

// frame types on the air.
type frameType int

const (
	frameRTS frameType = iota + 1
	frameCTS
	frameData
	frameAck
	frameATIM
	frameATIMAck
)

func (t frameType) String() string {
	switch t {
	case frameRTS:
		return "RTS"
	case frameCTS:
		return "CTS"
	case frameData:
		return "DATA"
	case frameAck:
		return "ACK"
	case frameATIM:
		return "ATIM"
	case frameATIMAck:
		return "ATIMACK"
	default:
		return fmt.Sprintf("frame(%d)", int(t))
	}
}

// On-air frame sizes in bytes (802.11-like).
const (
	sizeRTS     = 20
	sizeCTS     = 14
	sizeAck     = 14
	sizeATIM    = 28
	HeaderBytes = 28 // MAC header, added to network-layer bytes for DATA frames
)

// frame is the MAC-level payload carried in a phy.Frame. It is a value: the
// one frame a MAC can have on the air lives in MAC.txFr (see transmit).
type frame struct {
	typ frameType
	seq uint64 // per-sender sequence for duplicate filtering
	pkt *Packet

	// navUntil is the virtual time the exchange occupies the channel, set
	// on RTS/CTS so bystanders defer (virtual carrier sense).
	navUntil sim.Time

	// ctsPower is the data transmit power the responder measured from the
	// RTS (TPC feedback), set on CTS frames.
	ctsPower float64
}

// txThen says what txDone does once the frame on the air has ended, for the
// job in MAC.txJob.
type txThen uint8

const (
	thenNothing      txThen = iota // a control response: nothing follows
	thenAwaitCTS                   // RTS sent
	thenAwaitAck                   // unicast DATA sent
	thenAwaitATIMAck               // unicast ATIM sent
	thenFinish                     // broadcast DATA sent: the job is done
	thenAnnounced                  // broadcast ATIM sent: park until the window closes
)

// Stats counts MAC-level activity.
type Stats struct {
	UnicastSent    uint64 `json:"unicast_sent"`   // data frames successfully acknowledged
	UnicastFailed  uint64 `json:"unicast_failed"` // jobs dropped after retry/announce exhaustion
	BroadcastSent  uint64 `json:"broadcast_sent"`
	QueueDrops     uint64 `json:"queue_drops"` // packets rejected because the queue was full
	Retries        uint64 `json:"retries"`
	ATIMSent       uint64 `json:"atim_sent"`
	CollisionsSeen uint64 `json:"collisions_seen"` // corrupted receptions observed
}

// Delivery is the callback type for packets delivered to the network layer.
type Delivery func(from int, pkt *Packet)

// DoneFunc reports the fate of a queued packet, once, and after every
// delivery of it: when done fires no receiver will be handed the packet
// again, so the sender may reuse it (internal/routing's send state does). A
// unicast's done fires on the ACK or at the retry limit, and the receiver's
// delivery callback ran when the DATA frame ended, before it sent the ACK. A
// broadcast's done fires from txDone at the end of the frame, which the MAC
// schedules after the medium's end-of-frame event for the same instant, the
// one that runs every recipient's RxEnd and with it the delivery callback.
type DoneFunc func(ok bool)

// job is one queued network-layer packet.
type job struct {
	dst         int // phy.Broadcast for broadcasts
	pkt         *Packet
	power       float64 // data-frame power (TPC); control frames go at max
	done        DoneFunc
	attempts    int
	cw          int
	windowTries int    // ATIM windows missed (PSM destinations)
	seq         uint64 // assigned on first transmission; retries reuse it so
	// receivers can filter duplicates when an ACK is lost
}

// MAC is the per-node medium-access state machine.
type MAC struct {
	id    int
	pos   geom.Point
	sim   *sim.Simulator
	med   *phy.Medium
	radio *radio.Radio
	cfg   Config
	coord *Coordinator

	maxPower float64 // cfg.Card.MaxTxPower(): every control frame goes at it
	deliver  Delivery

	navUntil  sim.Time
	queue     []*job
	current   *job
	freeJobs  []*job    // finished jobs, reused by enqueue
	pending   sim.Timer // backoff / retry timer for current
	attemptFn func()    // attempt pre-bound once so rescheduling never allocates
	seq       uint64
	lastSeq   map[int]uint64 // duplicate filter per sender

	// The exchange in flight (ARCHITECTURE "Exchange state"). Each of the
	// four slots below has at most one timer outstanding and one pre-bound
	// callback that reads the slot's fields; none of them allocates.

	// On the air: the one frame this MAC can be transmitting (see transmit).
	txFrame  phy.Frame
	txFr     frame  // txFrame's payload
	txThen   txThen // what txDone does next ...
	txJob    *job   // ... and for which job (nil for a response)
	txDoneFn func()

	// Owed: the one CTS/ACK/ATIMACK scheduled SIFS after a reception.
	respTimer sim.Timer
	respDst   int
	respBytes int
	respFr    frame
	respondFn func()

	// Awaited: the reply current is waiting for, and its timeout.
	await       frameType // CTS, ACK or ATIMACK; 0 when none
	awaitTmr    sim.Timer
	awaitJob    *job
	retryFn     func()
	retryATIMFn func()

	// Deferred: the DATA frame due SIFS after the CTS (or once a response
	// of ours has left the air).
	dataTmr    sim.Timer
	dataJob    *job
	sendDataFn func()

	// TPC table: minimum data power per neighbor learned from CTS.
	tpc map[int]float64

	// PSM state
	awakeUntil     sim.Time       // hard hold: stay awake until this time
	announcedTo    map[int]uint64 // dst -> beacon interval our ATIM succeeded in
	announcedBy    map[int]bool   // srcs whose announced broadcast we await
	bcastAnnounced uint64         // interval in which our broadcast ATIM went out

	stats Stats
}

var _ phy.Listener = (*MAC)(nil)

// New creates a MAC bound to the medium and coordinator. The delivery
// callback receives decoded data packets addressed to this node (or
// broadcast).
func New(s *sim.Simulator, med *phy.Medium, coord *Coordinator, id int, pos geom.Point, cfg Config, deliver Delivery) *MAC {
	m := &MAC{
		id:       id,
		pos:      pos,
		sim:      s,
		med:      med,
		radio:    radio.NewRadio(cfg.Card),
		cfg:      cfg,
		coord:    coord,
		maxPower: cfg.Card.MaxTxPower(),
		deliver:  deliver,
	}
	m.attemptFn = m.attempt
	m.txDoneFn = m.txDone
	m.respondFn = m.sendResponse
	m.retryFn = m.retry
	m.retryATIMFn = m.retryATIM
	m.sendDataFn = m.sendData
	med.Attach(m)
	coord.register(m)
	return m
}

// put sets (*p)[k] = v, making the map on its first write. The per-peer
// maps (lastSeq, tpc, announcedTo, announcedBy) start nil and are written
// only through put: most nodes never write some of them, and reads, len,
// delete and clear work on a nil map.
func put[V any](p *map[int]V, k int, v V) {
	if *p == nil {
		*p = make(map[int]V)
	}
	(*p)[k] = v
}

// NodeID implements phy.Listener.
func (m *MAC) NodeID() int { return m.id }

// Pos implements phy.Listener.
func (m *MAC) Pos() geom.Point { return m.pos }

// CanReceive implements phy.Listener: awake and not transmitting.
func (m *MAC) CanReceive() bool {
	return !m.radio.Asleep() && !m.radio.Transmitting()
}

// Radio exposes the energy meter.
func (m *MAC) Radio() *radio.Radio { return m.radio }

// Stats returns a copy of the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// PowerMode returns the node's power-management mode: its entry in the
// coordinator's mode table, the one copy of that fact.
func (m *MAC) PowerMode() PowerMode { return m.coord.modes[m.id] }

// PeerPowerMode returns the power-management mode of another node. The
// paper's protocols learn this from routing updates and the ATIM handshake;
// reading it through the coordinator is a documented modelling shortcut.
func (m *MAC) PeerPowerMode(id int) PowerMode { return m.coord.PowerModeOf(id) }

// Card returns the radio card.
func (m *MAC) Card() radio.Card { return m.cfg.Card }

// MaxPower returns the card's maximum transmit power.
func (m *MAC) MaxPower() float64 { return m.maxPower }

// TxPowerFor returns the learned minimum data power for dst, or max power if
// unknown.
func (m *MAC) TxPowerFor(dst int) float64 {
	if p, ok := m.tpc[dst]; ok {
		return p
	}
	return m.MaxPower()
}

// LinkTxPower returns the total transmit power needed to reach the given
// neighbor, derived from geometry. Physically this is the measurement a node
// makes from the RSS of any frame heard from that neighbor (frames are sent
// at a known power), as in the paper's RTS-CTS based power control.
func (m *MAC) LinkTxPower(neighbor int) float64 {
	return m.cfg.Card.TxPower(m.med.Distance(m.id, neighbor))
}

// NeighborsCached returns the node's static max-range neighbor list: its
// row of the medium's reach table, the one copy of that fact. Callers must
// not mutate the returned slice.
func (m *MAC) NeighborsCached() []int {
	return m.med.Neighbors(m.id, m.cfg.Card.Range)
}

// SetPowerMode switches between AM and PSM. Entering AM wakes the radio;
// entering PSM lets the node sleep at the next opportunity.
func (m *MAC) SetPowerMode(mode PowerMode) {
	if mode != AM && mode != PSM {
		panic(fmt.Sprintf("mac: invalid power mode %d", int(mode)))
	}
	if m.PowerMode() == mode {
		return
	}
	m.coord.modes[m.id] = mode
	if mode == AM {
		m.wake()
		m.kick()
	} else {
		m.maybeSleep()
	}
}

// Awake reports whether the radio is currently awake.
func (m *MAC) Awake() bool { return !m.radio.Asleep() }

// wake brings the radio to idle mode.
func (m *MAC) wake() {
	m.radio.SetMode(m.sim.Now(), radio.ModeIdle)
}

// maybeSleep puts the radio to sleep if PSM policy allows it right now.
func (m *MAC) maybeSleep() {
	now := m.sim.Now()
	if m.PowerMode() != PSM ||
		m.coord.inWindow() ||
		now < m.awakeUntil ||
		len(m.announcedBy) > 0 ||
		m.radio.Transmitting() ||
		m.radio.Receiving() ||
		m.current != nil ||
		m.hasEligibleJob() {
		return
	}
	m.radio.SetMode(now, radio.ModeSleep)
}

// anyPSMNeighbor reports whether any node in maximum transmit range is in
// power-save mode; broadcasts must then be announced in the ATIM window.
func (m *MAC) anyPSMNeighbor() bool {
	for _, id := range m.NeighborsCached() {
		if m.coord.PowerModeOf(id) == PSM {
			return true
		}
	}
	return false
}

// Energy returns the node's energy breakdown up to now.
func (m *MAC) Energy() radio.Breakdown {
	return m.radio.Snapshot(m.sim.Now())
}
