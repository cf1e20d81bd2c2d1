package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxRemoteEntry bounds one cache entry on the wire; a Results JSON is a
// few KB, so anything near this is a protocol violation, not a result.
const maxRemoteEntry = 64 << 20

// Remote is a Store served by another process over HTTP (see Handler,
// mounted by eendd at /v1/cache/). Entries travel sealed in the same
// checksummed envelope the disk uses, so a truncated or garbled transfer
// is detected by the receiver and degrades to a miss — the remote tier can
// never poison a local cache. Unreachable peers also degrade to misses:
// a fleet cache is an accelerator, and losing it must never fail a sweep.
type Remote struct {
	base string
	hc   *http.Client
	counters
}

// NewRemote returns a client store for the daemon at base (e.g.
// "http://host:8080"). hc == nil uses a client with a conservative
// per-request timeout.
func NewRemote(base string, hc *http.Client) *Remote {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Remote{base: strings.TrimSuffix(base, "/"), hc: hc, counters: counters{obs: &obsRemote}}
}

// Base returns the remote daemon's base URL.
func (s *Remote) Base() string { return s.base }

func (s *Remote) url(key string) string { return s.base + "/v1/cache/" + key }

// Get fetches the value stored under key on the peer. Transport faults,
// non-200 statuses and corrupt envelopes all count as misses.
func (s *Remote) Get(key string) ([]byte, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	defer s.obs.gets.ObserveSince(time.Now())
	resp, err := s.hc.Get(s.url(key))
	if err != nil {
		s.miss()
		return nil, false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		s.miss()
		return nil, false, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntry))
	if err != nil {
		s.miss()
		return nil, false, nil
	}
	payload, ok := s.opened(data)
	return payload, ok, nil
}

// Put stores value under key on the peer.
func (s *Remote) Put(key string, value []byte) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	defer s.obs.puts.ObserveSince(time.Now())
	req, err := http.NewRequest(http.MethodPut, s.url(key), bytes.NewReader(seal(value)))
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cache: remote put %s: status %d", key, resp.StatusCode)
	}
	s.puts.Add(1)
	return nil
}

// Handler serves a Store over HTTP for Remote clients:
//
//	GET /v1/cache/{key}  the sealed entry (404 JSON error on a miss)
//	PUT /v1/cache/{key}  store a sealed entry (400 on a corrupt upload)
//
// An invalid key is a 400; any other Store error (a full disk, a
// permission fault) is the server's, a 500. Errors are JSON envelopes
// ({"error": ...}) so the routes compose with eendd's API surface.
func Handler(s Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		payload, ok, err := s.Get(key)
		if err != nil {
			jsonError(w, faultStatus(key), err)
			return
		}
		if !ok {
			jsonError(w, http.StatusNotFound, fmt.Errorf("cache: no entry for %q", key))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(seal(payload))
	})
	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		data, err := io.ReadAll(io.LimitReader(r.Body, maxRemoteEntry+1))
		if err != nil {
			jsonError(w, http.StatusBadRequest, err)
			return
		}
		if len(data) > maxRemoteEntry {
			jsonError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("cache: entry exceeds %d bytes", maxRemoteEntry))
			return
		}
		payload, ok := unseal(data)
		if !ok {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("cache: upload for %q failed the envelope checksum", key))
			return
		}
		if err := s.Put(key, payload); err != nil {
			jsonError(w, faultStatus(key), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"stored": key})
	})
	return mux
}

// faultStatus classifies a Store error by the key it was given.
func faultStatus(key string) int {
	if ValidKey(key) != nil {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// jsonError writes the JSON error envelope the eendd API uses.
func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
