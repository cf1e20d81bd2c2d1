package cache

import (
	"sync"
	"time"
)

// Mem is an in-memory Store: the local tier of a peered daemon running
// without a -cache directory, and a convenient backend for tests. Entries
// are sealed exactly like Disk's, so corruption detection (and the
// conformance suite) covers it identically.
type Mem struct {
	counters
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte), counters: counters{obs: &obsMem}}
}

// Get returns the value stored under key.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	defer s.obs.gets.ObserveSince(time.Now())
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		s.miss()
		return nil, false, nil
	}
	payload, ok := s.opened(data)
	return payload, ok, nil
}

// Put stores value under key, replacing any previous entry.
func (s *Mem) Put(key string, value []byte) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	defer s.obs.puts.ObserveSince(time.Now())
	sealed := seal(value)
	s.mu.Lock()
	s.m[key] = sealed
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}
