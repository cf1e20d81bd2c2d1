package experiments

import (
	"errors"
	"fmt"

	"eend/internal/geom"
	"eend/internal/mac"
	"eend/internal/network"
	"eend/internal/phy"
	"eend/internal/radio"
	"eend/internal/routing"
)

// schedModel is the sleep-scheduling assumption of the grid projection.
type schedModel int

const (
	schedPerfect schedModel = iota + 1 // nodes wake exactly when needed
	schedODPM                          // route nodes idle, others PSM duty-cycle
	schedActive                        // everyone idles (DSR-Active baseline)
)

// stabilizedRoutes extracts each flow's source route from a grid network
// that has run to its stabilization horizon.
func stabilizedRoutes(nw *network.Network, sc network.Scenario) ([][]int, error) {
	routes := make([][]int, len(sc.Flows))
	for i, f := range sc.Flows {
		dsr, ok := nw.Protocol(f.Src).(*routing.DSR)
		if !ok {
			return nil, errors.New("grid stack is not DSR-family")
		}
		route := dsr.CachedRoute(f.Dst)
		if route == nil {
			// Discovery did not complete (possible at Quick scale):
			// fall back to the direct link if feasible.
			if sc.Positions[f.Src].Dist(sc.Positions[f.Dst]) > sc.Card.Range {
				return nil, fmt.Errorf("no stabilized route for flow %d", f.ID)
			}
			route = []int{f.Src, f.Dst}
		}
		routes[i] = route
	}
	return routes, nil
}

// projected is the field of Figs. 13-16: the energy goodput (Kbit/J, as in
// the paper's axes) of a run's stabilized routes at the given rate under a
// scheduling model. DSR-Active idles whatever the figure assumes.
func projected(sched schedModel) func(run, float64) float64 {
	return func(rn run, rateKbps float64) float64 {
		model := sched
		if rn.line.stack.PM == network.PMAlwaysActive {
			model = schedActive
		}
		return projectEnergy(rn.sc.Card, rn.sc.Positions, rn.routes, rn.line.pc, rateKbps, model, rn.p.horizon) / 1000
	}
}

// projectEnergy computes Enetwork for the stabilized routes at the given
// rate under a scheduling model, and returns energy goodput (bit/J).
// Communication is priced per data frame (paper Eq. 1): Ptx on the sender
// and Prx on the receiver for the frame's airtime; MAC control exchanges
// are excluded, as in the paper's projection.
func projectEnergy(card radio.Card, pts []geom.Point, routes [][]int, pc bool, rateKbps float64, sched schedModel, horizon float64) float64 {
	const (
		bandwidth = phy.DefaultBandwidth
		appBytes  = 128
		hdrBytes  = routing.DataHeaderBytes + mac.HeaderBytes
	)
	preamble := phy.Preamble.Seconds()
	rate := rateKbps * kbit            // bit/s
	pktPerSec := rate / (appBytes * 8) // packets per second per flow
	busy := make([]float64, len(pts))  // comm seconds per node
	onRoute := make([]bool, len(pts))

	var ecomm float64
	for _, route := range routes {
		onAir := appBytes + hdrBytes + routing.PerHopBytes*len(route)
		tPkt := preamble + float64(onAir*8)/bandwidth
		commT := pktPerSec * horizon * tPkt // seconds of airtime per link
		for i := 0; i+1 < len(route); i++ {
			u, v := route[i], route[i+1]
			onRoute[u], onRoute[v] = true, true
			ptx := card.MaxTxPower()
			if pc {
				ptx = card.TxPower(pts[u].Dist(pts[v]) * mac.TPCMargin)
			}
			ecomm += commT * (ptx + card.Recv)
			busy[u] += commT
			busy[v] += commT
		}
	}

	var epassive float64
	const psmAwakeFrac = float64(mac.ATIMWindow) / float64(mac.BeaconInterval)
	for v := range pts {
		idleT := horizon - busy[v]
		if idleT < 0 {
			idleT = 0
		}
		switch {
		case sched == schedActive:
			epassive += idleT * card.Idle
		case sched == schedPerfect:
			epassive += idleT * card.Sleep
		case onRoute[v]: // schedODPM, node held active by keep-alives
			epassive += idleT * card.Idle
		default: // schedODPM, node duty-cycles in PSM
			epassive += idleT * (psmAwakeFrac*card.Idle + (1-psmAwakeFrac)*card.Sleep)
		}
	}

	delivered := float64(len(routes)) * rate * horizon
	return delivered / (ecomm + epassive)
}
