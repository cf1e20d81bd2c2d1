package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint returns the hex SHA-256 of the run's stable JSON encoding: a
// content address for the complete outcome of one simulation. Two runs of
// the same scenario fingerprint identically exactly when every metric —
// down to per-node energies — is bit-identical, which makes the fingerprint
// the determinism contract's test surface: the kernel, the protocols and
// the RNG streams may be refactored at will as long as fixed-seed
// fingerprints do not move (see the golden tests in the eend root package).
func (r Results) Fingerprint() string {
	data, err := json.Marshal(r)
	if err != nil {
		// Results contains only plain structs, slices and numbers; an
		// encoding failure is a programming error, not an input error.
		panic(fmt.Sprintf("network: results not encodable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Copy clones a Results through its lossless JSON round-trip, so two
// holders of one outcome (a batch duplicate, evaluation slots
// sharing a fingerprint) never share mutable state: per-node slices,
// replicate summaries. An encoding fault — which the round-trip tests rule
// out — degrades to sharing the value rather than dropping the result.
func Copy(res *Results) *Results {
	data, err := json.Marshal(res)
	if err != nil {
		return res
	}
	cp, err := DecodeResults(data)
	if err != nil {
		return res
	}
	return cp
}
