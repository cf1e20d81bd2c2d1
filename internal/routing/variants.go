package routing

import (
	"time"

	"eend/internal/mac"
)

// NewDSR returns plain reactive shortest-path DSR. With powerControl the
// stack is the paper's DSR-ODPM-PC (power management first, then TPC).
func NewDSR(env *Env, powerControl bool) *DSR {
	return NewDSRVariant(env, Variant{PowerControl: powerControl})
}

// NewMTPR returns MTPR (Eq. 10): route cost f(u,v) = Pt(u,v), the
// transmit power level of the link, minimizing total radiated power.
func NewMTPR(env *Env) *DSR {
	return NewDSRVariant(env, Variant{
		CostBased: true,
		LinkCost: func(d *DSR, from int, _ *rreq) float64 {
			card := d.env.MAC.Card()
			return d.env.MAC.LinkTxPower(from) - card.Base
		},
		PowerControl: true, // MTPR exists to exploit TPC
	})
}

// NewMTPRPlus returns MTPR+ (Eq. 11): f(u,v) = Pbase + Pt(u,v) + Prx,
// charging the fixed transmitter and receiver costs per hop.
func NewMTPRPlus(env *Env) *DSR {
	return NewDSRVariant(env, Variant{
		CostBased: true,
		LinkCost: func(d *DSR, from int, _ *rreq) float64 {
			card := d.env.MAC.Card()
			return d.env.MAC.LinkTxPower(from) + card.Recv
		},
		PowerControl: true,
	})
}

// hCost implements the joint-optimization link cost h(u,v,r) of Eq. 12:
// c(u,v) = (Ptx(u,v) + Prx - 2*Pidle) * r/B, plus Pidle when the node being
// recruited is power saving (it would have to stay awake to relay).
func hCost(d *DSR, from int, rb float64) float64 {
	card := d.env.MAC.Card()
	c := (d.env.MAC.LinkTxPower(from) + card.Recv - 2*card.Idle) * rb
	if c < 0 {
		c = 0
	}
	if d.env.MAC.PowerMode() == mac.PSM {
		c += card.Idle
	}
	return c
}

// NewDSRH returns the reactive joint-optimization protocol (Section 4.2).
// With withRate the flow rate r from the packet header sets r/B; otherwise
// r/B = 1 (the paper's "norate" variant).
func NewDSRH(env *Env, withRate bool, powerControl bool) *DSR {
	return NewDSRVariant(env, Variant{
		CostBased: true,
		LinkCost: func(d *DSR, from int, req *rreq) float64 {
			rb := 1.0
			if withRate && req.Rate > 0 && d.env.Bandwidth > 0 {
				rb = req.Rate / d.env.Bandwidth
			}
			return hCost(d, from, rb)
		},
		PowerControl: powerControl,
	})
}

// titanDeferral is the extra RREQ forwarding delay of power-saving nodes, so
// that backbone (AM) paths win the route-discovery race.
const titanDeferral = 5 * time.Millisecond

// TITANOptions disable individual TITAN mechanisms for ablation studies.
type TITANOptions struct {
	// DisableProbability makes every power-saving node forward RREQs
	// (removes the backbone participation bias).
	DisableProbability bool
	// DisableDeferral removes the extra RREQ forwarding delay of
	// power-saving nodes (backbone routes no longer win the race).
	DisableDeferral bool
}

// NewTITAN returns TITAN (Section 4.3, [21]): DSR-style discovery in which a
// power-saving node joins route discovery only probabilistically, with the
// probability shrinking as more backbone (AM) nodes cover its neighborhood,
// and with a forwarding deferral so established backbone routes are found
// first. Active nodes always participate, which focuses traffic on the
// existing backbone and lets everyone else keep sleeping.
func NewTITAN(env *Env, powerControl bool) *DSR {
	return NewTITANVariant(env, powerControl, TITANOptions{})
}

// NewTITANVariant returns TITAN with individual mechanisms ablated.
func NewTITANVariant(env *Env, powerControl bool, opts TITANOptions) *DSR {
	v := Variant{PowerControl: powerControl}
	if !opts.DisableProbability {
		v.Participate = func(d *DSR) bool {
			if d.env.MAC.PowerMode() == mac.AM {
				return true
			}
			neighbors := d.env.MAC.NeighborsCached()
			backbone := 0
			for _, id := range neighbors {
				if d.env.MAC.PeerPowerMode(id) == mac.AM {
					backbone++
				}
			}
			if backbone == 0 {
				return true // no backbone nearby: must help or partition
			}
			p := 1.0 / float64(1+backbone)
			if len(neighbors) > 8 {
				// Dense neighborhoods offer route diversity; defer harder.
				p *= 8.0 / float64(len(neighbors))
			}
			if p < 0.05 {
				p = 0.05
			}
			return d.env.RNG().Float64() < p
		}
	}
	if !opts.DisableDeferral {
		v.ForwardDelay = func(d *DSR) time.Duration {
			if d.env.MAC.PowerMode() == mac.PSM {
				return titanDeferral + jitter(d.env.RNG(), titanDeferral)
			}
			return 0
		}
	}
	return NewDSRVariant(env, v)
}
