package cache

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// backend describes one Store implementation under conformance test. corrupt
// damages the raw stored entry for a key (bypassing the API) and reports
// whether it could; nil means the backend has no reachable storage to damage.
type backend struct {
	store   Store
	corrupt func(key string) bool
}

// backends builds a fresh instance of every Store implementation. The Remote
// client is exercised against a real HTTP round trip (Handler over a Mem
// store), so the wire format is covered by the same suite as the disk format.
func backends(t *testing.T) map[string]backend {
	t.Helper()
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	served := NewMem()
	srv := httptest.NewServer(Handler(served))
	t.Cleanup(srv.Close)
	peer := NewMem()
	peerSrv := httptest.NewServer(Handler(peer))
	t.Cleanup(peerSrv.Close)
	return map[string]backend{
		"disk": {disk, func(key string) bool { return corruptFile(disk.path(key)) }},
		"mem":  {mem, mem.corruptEntry},
		"remote": {NewRemote(srv.URL, srv.Client()),
			// Damage the entry inside the serving daemon's store; the server
			// must refuse to serve it and the client must see a miss.
			served.corruptEntry},
		"tiered": {NewTiered(NewMem(), NewRemote(peerSrv.URL, peerSrv.Client())), nil},
	}
}

// corruptFile flips the last byte of a stored disk entry in place.
func corruptFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return false
	}
	data[len(data)-1] ^= 0xff
	return os.WriteFile(path, data, 0o644) == nil
}

// corruptEntry flips a byte of the raw stored entry.
func (s *Mem) corruptEntry(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok || len(data) == 0 {
		return false
	}
	cp := append([]byte(nil), data...)
	cp[len(cp)-1] ^= 0xff
	s.m[key] = cp
	return true
}

func TestConformanceRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const k = "fp00roundtrip"
			if _, ok, err := b.store.Get(k); ok || err != nil {
				t.Fatalf("empty Get = (%v, %v), want miss", ok, err)
			}
			want := []byte(`{"delivery_ratio":0.97}`)
			if err := b.store.Put(k, want); err != nil {
				t.Fatal(err)
			}
			got, ok, err := b.store.Get(k)
			if err != nil || !ok || string(got) != string(want) {
				t.Fatalf("Get = (%q, %v, %v), want %q", got, ok, err, want)
			}
			st := b.store.Stats()
			if st.Hits+st.RemoteHits != 1 || st.Misses != 1 || st.Puts != 1 {
				t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
			}
		})
	}
}

func TestConformanceOverwrite(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const k = "fp01overwrite"
			if err := b.store.Put(k, []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := b.store.Put(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
			got, ok, err := b.store.Get(k)
			if err != nil || !ok || string(got) != "new" {
				t.Fatalf("Get = (%q, %v, %v) after overwrite, want new", got, ok, err)
			}
		})
	}
}

// TestConformanceConcurrentPutSameFingerprint is the fleet's write pattern:
// many workers finish the same deduplicated scenario near-simultaneously and
// all store under its fingerprint. Every write must succeed and the surviving
// entry must be one complete value, never an interleaving.
func TestConformanceConcurrentPutSameFingerprint(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const k = "fp02concurrent"
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := b.store.Put(k, []byte(fmt.Sprintf("writer-%02d", i))); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			got, ok, err := b.store.Get(k)
			if err != nil || !ok {
				t.Fatalf("Get = (%v, %v)", ok, err)
			}
			if len(got) != len("writer-00") || !strings.HasPrefix(string(got), "writer-") {
				t.Fatalf("torn entry %q", got)
			}
		})
	}
}

func TestConformanceRejectsBadKeys(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"", "ab", "../../../../etc/passwd", "ab/cd5678", "ab.cd5678"} {
				if err := b.store.Put(k, []byte("x")); err == nil {
					t.Errorf("Put accepted key %q", k)
				}
				if _, _, err := b.store.Get(k); err == nil {
					t.Errorf("Get accepted key %q", k)
				}
			}
		})
	}
}

// TestConformanceCorruptEntryIsMiss damages a stored entry behind the API
// and asserts it is reported as a miss — a corrupt cache entry must trigger
// a re-simulation, never be served as a result.
func TestConformanceCorruptEntryIsMiss(t *testing.T) {
	for name, b := range backends(t) {
		if b.corrupt == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			const k = "fp03corrupt"
			if err := b.store.Put(k, []byte(`{"delivery_ratio":0.97}`)); err != nil {
				t.Fatal(err)
			}
			if !b.corrupt(k) {
				t.Fatal("could not damage the stored entry")
			}
			if got, ok, err := b.store.Get(k); ok || err != nil {
				t.Fatalf("Get of corrupt entry = (%q, %v, %v), want miss", got, ok, err)
			}
			// The entry must stay a miss (no half-trusted caching of it) and
			// a subsequent Put must repair it.
			if _, ok, _ := b.store.Get(k); ok {
				t.Fatal("corrupt entry served on second read")
			}
			if err := b.store.Put(k, []byte("repaired")); err != nil {
				t.Fatal(err)
			}
			got, ok, err := b.store.Get(k)
			if err != nil || !ok || string(got) != "repaired" {
				t.Fatalf("Get after repair = (%q, %v, %v)", got, ok, err)
			}
		})
	}
}

// TestRemoteWireCorruption garbles the bytes in transit (not in storage):
// the client must reject the envelope and report a miss plus a corrupt count.
func TestRemoteWireCorruption(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("eend.cache/1 not-a-checksum\ngarbage"))
	}))
	defer srv.Close()
	c := NewRemote(srv.URL, srv.Client())
	if _, ok, err := c.Get("fp04garbled"); ok || err != nil {
		t.Fatalf("Get of garbled transfer = (%v, %v), want miss", ok, err)
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt, 1 miss", st)
	}
}

// TestRemoteUnreachablePeer asserts a dead peer degrades to misses instead
// of failing the caller.
func TestRemoteUnreachablePeer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead on arrival
	c := NewRemote(srv.URL, nil)
	if _, ok, err := c.Get("fp05deadpeer"); ok || err != nil {
		t.Fatalf("Get against dead peer = (%v, %v), want quiet miss", ok, err)
	}
	if err := c.Put("fp05deadpeer", []byte("x")); err == nil {
		t.Fatal("Put against dead peer should error")
	}
}

// TestHandlerRejectsCorruptUpload: a PUT whose envelope fails the checksum
// must be refused so one bad client can't poison the shared cache.
func TestHandlerRejectsCorruptUpload(t *testing.T) {
	served := NewMem()
	srv := httptest.NewServer(Handler(served))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/fp06poison",
		strings.NewReader("eend.cache/1 "+strings.Repeat("0", 64)+"\nmismatched payload"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, ok, _ := served.Get("fp06poison"); ok {
		t.Fatal("corrupt upload was stored")
	}
}

// faulty is a Store whose storage has failed: a full disk, a permission
// fault.
type faulty struct{ Store }

func (faulty) Get(string) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("read: input/output error")
}
func (faulty) Put(string, []byte) error { return fmt.Errorf("write: no space left on device") }

// TestHandlerStoreFaultIs500: a store I/O fault is the server's failure, a
// 500; only a key the store would never accept is the client's, a 400.
func TestHandlerStoreFaultIs500(t *testing.T) {
	srv := httptest.NewServer(Handler(faulty{}))
	defer srv.Close()
	for _, tc := range []struct {
		method, key string
		want        int
	}{
		{http.MethodPut, "fp09fault", http.StatusInternalServerError},
		{http.MethodGet, "fp09fault", http.StatusInternalServerError},
		{http.MethodPut, "ab", http.StatusBadRequest},
		{http.MethodGet, "ab", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+"/v1/cache/"+tc.key, bytes.NewReader(seal([]byte("x"))))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.key, resp.StatusCode, tc.want)
		}
	}
}

// TestTieredBackfill: a remote hit must be copied into the local tier so
// the next lookup is local, and counted as a RemoteHit exactly once.
func TestTieredBackfill(t *testing.T) {
	local, peer := NewMem(), NewMem()
	srv := httptest.NewServer(Handler(peer))
	defer srv.Close()
	tiered := NewTiered(local, NewRemote(srv.URL, srv.Client()))

	const k = "fp07backfill"
	if err := peer.Put(k, []byte("computed elsewhere")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tiered.Get(k)
	if err != nil || !ok || string(got) != "computed elsewhere" {
		t.Fatalf("Get = (%q, %v, %v)", got, ok, err)
	}
	if _, ok, _ := local.Get(k); !ok {
		t.Fatal("remote hit was not backfilled into the local tier")
	}
	if _, ok, err := tiered.Get(k); !ok || err != nil {
		t.Fatalf("second Get = (%v, %v)", ok, err)
	}
	st := tiered.Stats()
	if st.RemoteHits != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 remote hit then 1 local hit", st)
	}
}

// TestTieredWriteThrough: a Put must land locally and on every peer —
// that write-through is what makes the fleet cache shared — and a dead
// peer must not fail the write.
func TestTieredWriteThrough(t *testing.T) {
	local, peer := NewMem(), NewMem()
	srv := httptest.NewServer(Handler(peer))
	defer srv.Close()
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadSrv.Close()
	tiered := NewTiered(local,
		NewRemote(srv.URL, srv.Client()), NewRemote(deadSrv.URL, nil))
	if err := tiered.Put("fp08through", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := local.Get("fp08through"); !ok {
		t.Fatal("Put missed the local tier")
	}
	if got, ok, _ := peer.Get("fp08through"); !ok || string(got) != "x" {
		t.Fatalf("Put did not write through to the peer (got %q, %v)", got, ok)
	}
}
