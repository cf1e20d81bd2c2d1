package cache

import "time"

// Tiered layers a local store over remote peers so a fleet of daemons
// shares one warm cache. Get tries the local tier first, then each peer in
// order; a peer hit is backfilled into the local tier so the next lookup
// stays local. Put writes through: the local tier must accept the entry,
// and each peer gets a best-effort copy — that write-through is what makes
// the cache *shared* (a result computed once on any daemon is a hit
// everywhere), and a down peer costs nothing but a future re-simulation.
type Tiered struct {
	local   Store
	remotes []Store
	counters
}

// NewTiered returns a tiered store. local must be non-nil; remotes may be
// empty, in which case the store behaves exactly like local.
func NewTiered(local Store, remotes ...Store) *Tiered {
	return &Tiered{local: local, remotes: remotes, counters: counters{obs: &obsTiered}}
}

// Get returns the value stored under key in the nearest tier that has it.
func (s *Tiered) Get(key string) ([]byte, bool, error) {
	defer s.obs.gets.ObserveSince(time.Now())
	payload, ok, err := s.local.Get(key)
	if err != nil {
		return nil, false, err
	}
	if ok {
		s.hit()
		return payload, true, nil
	}
	for _, r := range s.remotes {
		payload, ok, err := r.Get(key)
		if err != nil || !ok {
			continue
		}
		s.remoteHit()
		// Backfill best-effort: a failed local write still served the hit.
		s.local.Put(key, payload)
		backfills.Inc()
		return payload, true, nil
	}
	s.miss()
	return nil, false, nil
}

// Local returns the local tier. The HTTP cache handler of a peered
// daemon must serve this tier, not the Tiered store itself: a wire Put
// that re-entered Put here would write through to the peer that sent it,
// and two mutually peered daemons would bounce every entry between each
// other until their clients time out.
func (s *Tiered) Local() Store { return s.local }

// Put stores value in the local tier and writes it through to every peer
// (best-effort: an unreachable peer does not fail the Put).
func (s *Tiered) Put(key string, value []byte) error {
	defer s.obs.puts.ObserveSince(time.Now())
	if err := s.local.Put(key, value); err != nil {
		return err
	}
	for _, r := range s.remotes {
		_ = r.Put(key, value)
	}
	s.puts.Add(1)
	return nil
}
