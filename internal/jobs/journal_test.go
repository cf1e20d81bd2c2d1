package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalReplayMarksInterrupted is the satellite's core contract: a
// job left running by a dead process is reported Failed after restart,
// with the interruption recorded as its error.
func TestJournalReplayMarksInterrupted(t *testing.T) {
	dir := t.TempDir()
	base := context.Background()
	s1, err := NewJournaled[payload](base, dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	j := s1.Start(nil, func(ctx context.Context, j *Job[payload]) error {
		<-block
		return nil
	})
	done := s1.Start(nil, func(ctx context.Context, j *Job[payload]) error { return nil })
	waitStatus(t, done, Done)

	// "Restart": a second store over the same state dir, while the first
	// process's job never got to record a terminal status.
	s2, err := NewJournaled[payload](base, dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(j.ID())
	if !ok {
		t.Fatalf("interrupted job %s not replayed", j.ID())
	}
	status, errText, _ := got.Snapshot()
	if status != Failed || !strings.Contains(errText, "interrupted") {
		t.Fatalf("replayed job = (%s, %q), want failed/interrupted", status, errText)
	}
	// The cleanly finished job is not resurrected.
	if _, ok := s2.Get(done.ID()); ok {
		t.Error("finished job replayed as live state")
	}
	close(block)
}

// TestJournalSequenceContinues: a restarted store must not reissue ids the
// previous process already handed to clients.
func TestJournalSequenceContinues(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "opt"})
	if err != nil {
		t.Fatal(err)
	}
	j1 := s1.Start(nil, func(context.Context, *Job[payload]) error { return nil })
	waitStatus(t, j1, Done)
	if j1.ID() != "opt-1" {
		t.Fatalf("first id = %s", j1.ID())
	}

	s2, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "opt"})
	if err != nil {
		t.Fatal(err)
	}
	j2 := s2.Start(nil, func(context.Context, *Job[payload]) error { return nil })
	waitStatus(t, j2, Done)
	if j2.ID() != "opt-2" {
		t.Fatalf("post-restart id = %s, want opt-2", j2.ID())
	}
}

// TestJournalCompaction: restarting over and over must not grow the
// journal — each open rewrites it down to the interrupted set.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		s, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "c"})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			j := s.Start(nil, func(context.Context, *Job[payload]) error { return nil })
			waitStatus(t, j, Done)
		}
		s.Close()
	}
	s, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d jobs replayed from cleanly finished history, want 0", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, "c.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("compacted journal still holds %d bytes: %q", len(data), data)
	}
}

// TestJournalSurvivesTornTail: replay must tolerate a torn last line (the
// crash happened mid-append) and keep every parsable record.
func TestJournalSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "t"})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	j := s1.Start(nil, func(context.Context, *Job[payload]) error { <-block; return nil })

	path := filepath.Join(dir, "t.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"id":"t-9","seq":9,"stat`) // torn mid-record
	f.Close()

	s2, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(j.ID()); !ok {
		t.Fatal("record before the torn tail was lost")
	}
}

// TestJournalSkipsOverlongLine: a line longer than replay will buffer is a
// foreign line like any other — the records on either side of it replay and
// the store starts. (A 1 MiB scanner cap used to turn it into "token too
// long" and a daemon that would not start.)
func TestJournalSkipsOverlongLine(t *testing.T) {
	dir := t.TempDir()
	journal := `{"id":"t-1","seq":1,"status":"running"}` + "\n" +
		strings.Repeat("x", 2<<20) + "\n" +
		`{"id":"t-2","seq":2,"status":"running"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "t.journal"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "t"})
	if err != nil {
		t.Fatalf("store refused a journal with an over-long line: %v", err)
	}
	for _, id := range []string{"t-1", "t-2"} {
		if _, ok := s.Get(id); !ok {
			t.Errorf("record %s beside the over-long line was lost", id)
		}
	}
}

// FuzzJournalReplay: the journal is read back after a crash, so replay sees
// whatever the crash left. On bytes alone it never fails and never panics.
// And for a journal the store could have written — valid records, here
// derived from the input, with foreign lines between them, some over the
// line limit (96 bytes here, so that they are cheap to make) — every prefix,
// a crash at any byte, recovers only jobs that journal holds, and the
// highest sequence number recovered never falls as the prefix grows.
func FuzzJournalReplay(f *testing.F) {
	const limit = 96
	f.Add([]byte(`{"id":"t-1","seq":1,"status":"running"}` + "\n" + `{"id":"t-1","seq":1,"stat`))
	f.Add(bytes.Repeat([]byte("over-long "), 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := replayFrom(bytes.NewReader(data), limit); err != nil {
			t.Fatalf("replay failed on bytes alone: %v", err)
		}
		// One record per input byte, eight at most: the byte picks the job
		// and whether the record is terminal. Every third is followed by
		// the input itself as a foreign line ('#' first and no newline
		// inside, so it is never a record).
		foreign := append([]byte{'#'}, bytes.ReplaceAll(data[:min(len(data), limit+32)], []byte{'\n'}, []byte{' '})...)
		var journal []byte
		ids := map[string]bool{}
		for i, b := range data[:min(len(data), 8)] {
			rec := record{ID: fmt.Sprintf("t-%d", b%4), Seq: i + 1, Status: Running}
			if b&4 != 0 {
				rec.Status = Done
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			journal = append(append(journal, line...), '\n')
			if i%3 == 2 {
				journal = append(append(journal, foreign...), '\n')
			}
			ids[rec.ID] = true
		}
		prevSeq := 0
		for cut := 0; cut <= len(journal); cut++ {
			recs, maxSeq, err := replayFrom(bytes.NewReader(journal[:cut]), limit)
			if err != nil {
				t.Fatalf("replay of a %d-byte prefix failed: %v", cut, err)
			}
			if maxSeq < prevSeq {
				t.Fatalf("maxSeq fell from %d to %d at prefix %d of %q", prevSeq, maxSeq, cut, journal)
			}
			prevSeq = maxSeq
			for _, r := range recs {
				if !ids[r.ID] {
					t.Fatalf("prefix %d of %q recovered job %q, which the journal never held", cut, journal, r.ID)
				}
			}
		}
		if _, maxSeq, _ := replayFrom(bytes.NewReader(journal), limit); maxSeq != min(len(data), 8) {
			t.Fatalf("the whole journal %q replays to maxSeq %d, want %d: a record was lost", journal, maxSeq, min(len(data), 8))
		}
	})
}

// TestJournaledStoreStillEvicts: replayed failures count as finished jobs
// and age out under the retention cap like any other.
func TestJournaledStoreStillEvicts(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "e", Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 5; i++ {
		s1.Start(nil, func(context.Context, *Job[payload]) error { <-block; return nil })
	}
	s2, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "e", Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n > 2 {
		t.Fatalf("replay retained %d jobs over a cap of 2", n)
	}
}

// waitStatus polls a job until it reaches want (or the test times out).
func waitStatus[V any](t *testing.T, j *Job[V], want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.Status())
}

// TestJournalShutdownCancelIsNotTerminal: a job the store's own dying base
// context cancelled stays "running" on disk and comes back interrupted,
// however long its goroutine had to settle before the restart; a client's
// Cancel with the base alive is a terminal record and is not resurrected.
func TestJournalShutdownCancelIsNotTerminal(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := context.WithCancel(context.Background())
	s1, err := NewJournaled[payload](base, dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	untilCancelled := func(ctx context.Context, _ *Job[payload]) error {
		<-ctx.Done()
		return ctx.Err()
	}
	deleted := s1.Start(nil, untilCancelled)
	deleted.Cancel()
	waitStatus(t, deleted, Cancelled)
	inflight := s1.Start(nil, untilCancelled)
	shutdown()
	waitStatus(t, inflight, Cancelled) // settled in the dying store, before the restart

	s2, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(inflight.ID())
	if !ok {
		t.Fatalf("job %s cancelled by shutdown not replayed", inflight.ID())
	}
	if status, errText, _ := got.Snapshot(); status != Failed || !strings.Contains(errText, "interrupted") {
		t.Fatalf("replayed job = (%s, %q), want failed/interrupted", status, errText)
	}
	if _, ok := s2.Get(deleted.ID()); ok {
		t.Error("client-cancelled job resurrected after restart")
	}
}

// TestPanickingJobFailsAlone: a job body that panics settles as Failed with
// the panic value as its error, its sibling finishes, and the failure is a
// terminal journal record — the next daemon does not resurrect the job as
// interrupted.
func TestPanickingJobFailsAlone(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	bad := s1.Start(nil, func(context.Context, *Job[payload]) error { panic("phy: unknown node 7") })
	good := s1.Start(nil, func(context.Context, *Job[payload]) error { return nil })
	waitStatus(t, bad, Failed)
	waitStatus(t, good, Done)
	if _, errText, _ := bad.Snapshot(); !strings.Contains(errText, "phy: unknown node 7") {
		t.Fatalf("errText = %q, want the panic value", errText)
	}
	s2, err := NewJournaled[payload](context.Background(), dir, Options{Prefix: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(bad.ID()); ok {
		t.Error("a job that failed by panicking was replayed as interrupted: its failure was not journaled")
	}
}
