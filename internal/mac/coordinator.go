package mac

import "eend/internal/sim"

// Coordinator drives the synchronized PSM beacon schedule shared by all
// nodes: at every beacon-interval boundary the ATIM window opens and all
// power-saving nodes wake; when the window closes, unannounced power-saving
// nodes go back to sleep. Beacon frames themselves are modelled as timing
// only (documented simplification).
type Coordinator struct {
	sim    *sim.Simulator
	macs   []*MAC
	modes  []PowerMode // node id -> mode (0: no MAC); after register, only SetPowerMode writes
	window bool
	iv     uint64   // current beacon interval index, starts at 1
	start  sim.Time // start time of the current interval

	// The beacon callbacks are pre-bound once: the schedule repeats every
	// interval for the whole run and must not allocate a fresh method
	// value each time.
	beaconFn    func()
	windowEndFn func()
}

// NewCoordinator creates the beacon scheduler. Call Start before running the
// simulation.
func NewCoordinator(s *sim.Simulator) *Coordinator {
	c := &Coordinator{sim: s}
	c.beaconFn = c.onBeacon
	c.windowEndFn = c.onWindowEnd
	return c
}

// register attaches a MAC in AM (called from mac.New).
func (c *Coordinator) register(m *MAC) {
	c.macs = append(c.macs, m)
	c.modes = append(c.modes, make([]PowerMode, max(0, m.id+1-len(c.modes)))...)
	c.modes[m.id] = AM
}

// Start schedules the repeating beacon. The first beacon fires immediately.
func (c *Coordinator) Start() {
	c.sim.ScheduleFor(sim.LayerMAC, 0, c.beaconFn)
}

func (c *Coordinator) onBeacon() {
	c.iv++
	c.start = c.sim.Now()
	c.window = true
	for _, m := range c.macs {
		m.onBeacon()
	}
	c.sim.ScheduleFor(sim.LayerMAC, ATIMWindow, c.windowEndFn)
	c.sim.ScheduleFor(sim.LayerMAC, BeaconInterval, c.beaconFn)
}

func (c *Coordinator) onWindowEnd() {
	c.window = false
	for _, m := range c.macs {
		m.onWindowEnd()
	}
}

// inWindow reports whether the ATIM window is currently open.
func (c *Coordinator) inWindow() bool { return c.window }

// interval returns the current beacon interval index (1-based; 0 before the
// first beacon).
func (c *Coordinator) interval() uint64 { return c.iv }

// nextBeacon returns the start time of the next beacon interval.
func (c *Coordinator) nextBeacon() sim.Time {
	if c.iv == 0 {
		return 0
	}
	return c.start + BeaconInterval
}

// PowerModeOf returns the power-management mode of a node (AM if no MAC has
// its id), used by routing layers that track neighbor state (the paper's
// protocols learn it from routing updates; reading it is a documented shortcut).
func (c *Coordinator) PowerModeOf(id int) PowerMode {
	if uint(id) < uint(len(c.modes)) && c.modes[id] == PSM {
		return PSM
	}
	return AM
}
