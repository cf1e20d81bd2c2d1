package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

const key = "ab12cd34ef56"

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("empty store Get = (%v, %v), want miss", ok, err)
	}
	want := []byte(`{"delivery_ratio":0.97}`)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v)", ok, err)
	}
	if string(got) != string(want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

func TestShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key[:2], key+".json")); err != nil {
		t.Fatalf("entry not at sharded path: %v", err)
	}
	n, err := s.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want 1", n, err)
	}
}

func TestPutReplaces(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Put(key, []byte("old"))
	if err := s.Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get(key)
	if string(got) != "new" {
		t.Fatalf("Get = %q after replace, want new", got)
	}
}

func TestRejectsBadKeys(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, k := range []string{"", "ab", "../../../../etc/passwd", "ab/cd5678", "ab.cd5678"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", k)
		}
		if _, _, err := s.Get(k); err == nil {
			t.Errorf("Get accepted key %q", k)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	s1.Put(key, []byte("persisted"))
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(key)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = (%q, %v, %v)", got, ok, err)
	}
}

func TestConcurrentWritersSameKey(t *testing.T) {
	s, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(key, []byte(fmt.Sprintf("writer-%02d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	// Atomic rename: the entry is one complete writer's value, never torn.
	if len(got) != len("writer-00") {
		t.Fatalf("torn entry %q", got)
	}
	// No temp files may survive.
	left := 0
	filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, _ error) error {
		if !d.IsDir() && filepath.Ext(path) != ".json" {
			left++
		}
		return nil
	})
	if left != 0 {
		t.Fatalf("%d temp files left behind", left)
	}
}

// FuzzUnseal: sealed entries are read back from disk and off the wire (PUT
// /v1/cache/{fp}), so unseal sees bytes from outside. It never panics; it
// opens what seal wrote; and it rejects every single-bit flip of a sealed
// entry — in the magic, the checksum, the separator or the payload.
func FuzzUnseal(f *testing.F) {
	f.Add([]byte(`{"delivery_ratio":0.97}`), uint(0))
	f.Add([]byte{}, uint(7))
	f.Add(seal([]byte("an envelope as the payload")), uint(13*8+5))
	f.Fuzz(func(t *testing.T, data []byte, bit uint) {
		unseal(data) // outside bytes: any answer but a panic
		sealed := seal(data)
		if got, ok := unseal(sealed); !ok || !bytes.Equal(got, data) {
			t.Fatalf("unseal(seal(%q)) = (%q, %v)", data, got, ok)
		}
		bit %= uint(len(sealed)) * 8
		sealed[bit/8] ^= 1 << (bit % 8)
		if got, ok := unseal(sealed); ok {
			t.Fatalf("bit %d of seal(%q) flipped and still opened as %q", bit, data, got)
		}
	})
}

// sealed16K is a sealed 16 KB payload, the size of a 50-node paper-grid
// entry.
func sealed16K() []byte {
	return seal(bytes.Repeat([]byte(`{"idle_j":1.5},`), 16<<10/15+1)[:16<<10])
}

// TestUnsealAllocs: verifying an entry allocates nothing, so a cache hit
// costs its read and its hash.
func TestUnsealAllocs(t *testing.T) {
	data := sealed16K()
	if allocs := testing.AllocsPerRun(50, func() {
		if _, ok := unseal(data); !ok {
			t.Fatal("unseal rejects a sealed entry")
		}
	}); allocs != 0 {
		t.Fatalf("unseal of a 16 KB entry costs %.0f allocations, want 0", allocs)
	}
}

// BenchmarkUnseal is a cache hit's envelope check: one op verifies the
// SHA-256 of a sealed 16 KB entry. 0 allocs/op, CI-gated.
func BenchmarkUnseal(b *testing.B) {
	data := sealed16K()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := unseal(data); !ok {
			b.Fatal("unseal rejects a sealed entry")
		}
	}
}
