package routing

// NewStatic returns static routing for one node: the DSR engine with its
// control plane taken out (Variant.Pinned) and its route cache filled from
// a design — a solution of the formal network design problem, one route per
// demand (Section 3). The opt subsystem simulates candidate designs under
// it, so the measured energy reflects exactly the relays the design keeps
// awake and the links it crosses, MAC/PSM overheads included; and because
// the data plane is DSR's own, a design set beside a reactive protocol
// differs from it in routes and in nothing else.
//
// routes is the design's full route set (node paths src..dst); the node
// keeps those that originate at it, a later route to the same destination
// replacing an earlier one — demands with identical endpoints are
// interchangeable here.
func NewStatic(env *Env, routes [][]int, powerControl bool) *DSR {
	d := NewDSRVariant(env, Variant{Pinned: true, PowerControl: powerControl})
	for _, r := range routes {
		if len(r) >= 1 && r[0] == env.ID {
			d.cache[r[len(r)-1]] = &cachedRoute{path: r}
		}
	}
	return d
}
