// Package cache is a content-addressed result store. Values are addressed
// by the caller's key — in eend, a Scenario fingerprint (the SHA-256 of
// its canonical encoding) — so a cache entry is valid for exactly one
// simulation configuration and never goes stale: re-running a sweep with
// one axis changed re-simulates only the new points.
//
// The package provides one Store interface and four implementations:
//
//   - Disk: the on-disk store (sharded directories, atomic writes)
//   - Mem: an in-memory store for tests and cache-less daemons
//   - Remote: an HTTP client for another process's store (see Handler)
//   - Tiered: a local store backed by remote peers, so a fleet of daemons
//     shares one warm cache
//
// Every stored entry is sealed in a checksummed envelope; a corrupt entry
// (torn write survived a crash, bit rot, truncated transfer) is reported
// as a miss, never served.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Store is a content-addressed blob store. A missing entry is (nil, false,
// nil); only I/O faults (and invalid keys) surface as errors. All methods
// are safe for concurrent use. Writes are atomic and last-wins: readers
// see either a previous complete entry or the new complete one, never a
// mixture — concurrent Puts of the same fingerprint are harmless because
// a fingerprint's value is unique (the determinism contract), so whichever
// write lands last stored the same bytes.
type Store interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) error
	Stats() Stats
}

// Stats reports a store's lifetime counters (since construction).
type Stats struct {
	// Hits counts entries served from the store's own (local) storage;
	// RemoteHits counts entries a Tiered store fetched from a peer.
	Hits       uint64 `json:"hits"`
	RemoteHits uint64 `json:"remote_hits,omitempty"`
	Misses     uint64 `json:"misses"`
	Puts       uint64 `json:"puts"`
	// Corrupt counts entries rejected by the envelope checksum.
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// envelopeMagic tags sealed entries. Bump the version if the envelope
// layout changes: old entries then read as corrupt (a miss and a
// re-simulation), never as wrong payloads.
const envelopeMagic = "eend.cache/1 "

// seal wraps a payload in its checksummed envelope: one header line with
// the payload's SHA-256, then the payload verbatim. The envelope is both
// the on-disk format and the wire format of the remote store.
func seal(value []byte) []byte {
	sum := sha256.Sum256(value)
	head := envelopeMagic + hex.EncodeToString(sum[:]) + "\n"
	out := make([]byte, 0, len(head)+len(value))
	return append(append(out, head...), value...)
}

// unseal verifies an envelope and returns its payload; ok is false for
// anything malformed or checksum-mismatched.
func unseal(data []byte) ([]byte, bool) {
	headLen := len(envelopeMagic) + sha256.Size*2 + 1
	if len(data) < headLen || string(data[:len(envelopeMagic)]) != envelopeMagic {
		return nil, false
	}
	sumHex := string(data[len(envelopeMagic) : headLen-1])
	if data[headLen-1] != '\n' {
		return nil, false
	}
	payload := data[headLen:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, false
	}
	return payload, true
}

// counters is the atomic Stats backing shared by the implementations,
// together with the backend's process-wide instruments: every cache event
// is counted in both by the one method that names it.
type counters struct {
	hits, remoteHits, misses, puts, corrupt atomic.Uint64
	obs                                     *backendObs
}

func (c *counters) hit()       { c.hits.Add(1); c.obs.hits.Inc() }
func (c *counters) remoteHit() { c.remoteHits.Add(1); c.obs.hits.Inc() }
func (c *counters) miss()      { c.misses.Add(1); c.obs.misses.Inc() }

// opened unseals a raw entry and counts the outcome: a hit, or a corrupt
// entry served as a miss.
func (c *counters) opened(data []byte) ([]byte, bool) {
	payload, ok := unseal(data)
	if !ok {
		c.corrupt.Add(1)
		c.miss()
		return nil, false
	}
	c.hit()
	return payload, true
}

// Stats returns a snapshot of the store's own counters; every
// implementation embeds counters and serves Store.Stats through it (a
// Tiered store's tiers keep their own Stats independently).
func (c *counters) Stats() Stats {
	return Stats{
		Hits: c.hits.Load(), RemoteHits: c.remoteHits.Load(),
		Misses: c.misses.Load(), Puts: c.puts.Load(), Corrupt: c.corrupt.Load(),
	}
}

// Disk is the content-addressed on-disk store rooted at one directory.
// Layout: <dir>/<key[:2]>/<key>.json, one sealed entry per file, sharded
// by the first two key characters so huge sweeps don't produce huge
// directories. Writes go through a temp file + rename, so concurrent
// writers (the sweep worker pool) and crashed processes can never leave a
// torn entry behind — and the envelope checksum catches anything the
// filesystem still manages to mangle. The zero value is not usable; call
// Open.
type Disk struct {
	dir string
	counters
}

// Open creates (if needed) and opens a disk store rooted at dir.
func Open(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Disk{dir: dir, counters: counters{obs: &obsDisk}}, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

// ValidKey rejects keys that could escape a store's layout (path
// traversal, shard collisions). Fingerprints (lowercase hex) always pass.
func ValidKey(key string) error {
	if len(key) < 4 {
		return fmt.Errorf("cache: key %q too short", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("cache: key %q contains %q", key, c)
		}
	}
	return nil
}

// path maps a key to its entry file.
func (s *Disk) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the value stored under key. A corrupt entry — torn, rotted,
// or written by an incompatible version — is a miss, never a payload.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	defer s.obs.gets.ObserveSince(time.Now())
	data, err := os.ReadFile(s.path(key))
	switch {
	case err == nil:
		payload, ok := s.opened(data)
		return payload, ok, nil
	case os.IsNotExist(err):
		s.miss()
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cache: %w", err)
	}
}

// Put stores value under key, replacing any previous entry. The write is
// atomic: readers see either the old entry or the complete new one.
func (s *Disk) Put(key string, value []byte) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	defer s.obs.puts.ObserveSince(time.Now())
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(seal(value)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Len walks the store and counts entries (for tools and tests; a sweep
// never needs it on a hot path).
func (s *Disk) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
