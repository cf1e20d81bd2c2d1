// Package power implements the paper's power-management policies: ODPM
// (on-demand power management, [25]) with keep-alive timers that hold a node
// in active mode while it participates in routing, and an always-active
// baseline. "Perfect sleep scheduling" needs no manager: it is an accounting
// oracle on the radio card (radio.Card.PerfectSleep).
package power

import (
	"time"

	"eend/internal/mac"
	"eend/internal/sim"
)

// Activity is a routing-layer event that power management reacts to.
type Activity int

// Activities (ODPM triggers, paper Section 4.1).
const (
	// ActivityData fires when the node sends, forwards or receives a
	// unicast data packet.
	ActivityData Activity = iota + 1
	// ActivityRoute fires when the node originates, forwards or receives a
	// route reply, i.e. it has been selected as a relay.
	ActivityRoute
)

// ModeSetter is the part of the MAC a manager drives. Implemented by
// *mac.MAC and by test fakes.
type ModeSetter interface {
	SetPowerMode(mac.PowerMode)
	PowerMode() mac.PowerMode
}

// Manager decides AM/PSM transitions for one node.
type Manager interface {
	// Start sets the node's initial mode.
	Start()
	// OnActivity reports a routing event.
	OnActivity(Activity)
}

// NotifyFunc, if set on a manager that supports it, is invoked after every
// actual mode transition (used by DSDVH's triggered updates).
type NotifyFunc func(mac.PowerMode)

// AlwaysActive keeps the node in AM forever (the DSR-Active baseline).
type AlwaysActive struct {
	Node ModeSetter
}

// Start implements Manager.
func (a *AlwaysActive) Start() { a.Node.SetPowerMode(mac.AM) }

// OnActivity implements Manager.
func (a *AlwaysActive) OnActivity(Activity) {}

// ODPMConfig holds the keep-alive timers.
type ODPMConfig struct {
	// DataTimeout holds the node in AM after data activity (paper: 5 s;
	// the Span-improved variant uses 0.6 s).
	DataTimeout time.Duration
	// RouteTimeout holds the node in AM after a route reply (paper: 10 s;
	// Span-improved variant: 1.2 s).
	RouteTimeout time.Duration
}

// Default ODPM keep-alive values from the paper (Section 5.2).
const (
	DefaultDataTimeout  = 5 * time.Second
	DefaultRouteTimeout = 10 * time.Second
)

func (c ODPMConfig) withDefaults() ODPMConfig {
	if c.DataTimeout <= 0 {
		c.DataTimeout = DefaultDataTimeout
	}
	if c.RouteTimeout <= 0 {
		c.RouteTimeout = DefaultRouteTimeout
	}
	return c
}

// ODPM switches a node to AM on routing activity and back to PSM when its
// keep-alive timers expire.
type ODPM struct {
	sim      *sim.Simulator
	node     ModeSetter
	cfg      ODPMConfig
	deadline sim.Time
	timer    sim.Timer
	expireFn func() // pre-bound expire so re-arming never allocates
	notify   NotifyFunc
}

var _ Manager = (*ODPM)(nil)

// NewODPM creates an on-demand power manager for the node.
func NewODPM(s *sim.Simulator, node ModeSetter, cfg ODPMConfig) *ODPM {
	o := &ODPM{sim: s, node: node, cfg: cfg.withDefaults()}
	o.expireFn = o.expire
	return o
}

// SetNotify registers a callback fired after each actual mode change.
func (o *ODPM) SetNotify(fn NotifyFunc) { o.notify = fn }

// Start implements Manager: ODPM nodes begin in power-save mode.
func (o *ODPM) Start() { o.setMode(mac.PSM) }

// OnActivity implements Manager: refresh the keep-alive and go active.
func (o *ODPM) OnActivity(a Activity) {
	var hold time.Duration
	switch a {
	case ActivityData:
		hold = o.cfg.DataTimeout
	case ActivityRoute:
		hold = o.cfg.RouteTimeout
	default:
		return
	}
	dl := o.sim.Now() + hold
	if dl > o.deadline {
		o.deadline = dl
	}
	o.setMode(mac.AM)
	o.arm()
}

// arm moves the expiry check to the current deadline: a check already
// pending at exactly that instant is kept, any other is cancelled and a new
// one scheduled. (expire re-arms itself when it fires early, so keeping an
// earlier check would also be correct — but every golden fingerprint pins
// the kernel's sequence numbers, and with them this cancel-and-reschedule.)
func (o *ODPM) arm() {
	if o.timer.Pending() && o.timer.At() == o.deadline {
		return
	}
	o.timer.Cancel()
	o.timer = o.sim.ScheduleAtFor(sim.LayerPower, o.deadline, o.expireFn)
}

func (o *ODPM) expire() {
	now := o.sim.Now()
	if now < o.deadline {
		o.timer = o.sim.ScheduleAtFor(sim.LayerPower, o.deadline, o.expireFn)
		return
	}
	o.setMode(mac.PSM)
}

func (o *ODPM) setMode(m mac.PowerMode) {
	if o.node.PowerMode() == m {
		return
	}
	o.node.SetPowerMode(m)
	if o.notify != nil {
		o.notify(m)
	}
}
