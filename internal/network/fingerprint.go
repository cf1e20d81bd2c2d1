package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
)

// Fingerprint returns the hex SHA-256 of the run's stable JSON encoding: a
// content address for the complete outcome of one simulation. Two runs of
// the same scenario fingerprint identically exactly when every metric —
// down to per-node energies — is bit-identical, which makes the fingerprint
// the determinism contract's test surface: the kernel, the protocols and
// the RNG streams may be refactored at will as long as fixed-seed
// fingerprints do not move (see the golden tests in the eend root package).
func (r Results) Fingerprint() string {
	w := pooled()
	defer writers.Put(w)
	if w.Results(&r); w.err != nil {
		// A simulation's metrics are finite; one that is not is a
		// programming error, not an input error.
		panic(fmt.Sprintf("network: results not encodable: %v", w.err))
	}
	sum := sha256.Sum256(w.Buf)
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// Copy clones a Results field by field, so two holders of one outcome (a
// batch duplicate, evaluation slots sharing a fingerprint) never share
// mutable state: per-node slices, the lifetime, replicate summaries and
// their seeds.
func Copy(res *Results) *Results {
	cp := *res
	cp.PerNode = slices.Clone(res.PerNode)
	if res.Lifetime != nil {
		lt := *res.Lifetime
		cp.Lifetime = &lt
	}
	if res.Replicates != nil {
		rep := *res.Replicates
		rep.Seeds = slices.Clone(rep.Seeds)
		cp.Replicates = &rep
	}
	return &cp
}
