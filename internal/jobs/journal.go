package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A journal persists job status transitions as JSON lines in
// <dir>/<prefix>.journal, two records per job lifetime:
//
//	{"id":"sweep-3","seq":3,"status":"running","time":"..."}
//	{"id":"sweep-3","seq":3,"status":"done","time":"..."}
//
// On restart the store replays the journal: a job whose last record is
// still "running" was interrupted by the crash or restart, and is
// resurrected as Failed — a poller holding its id learns the truth instead
// of a 404 that looks like an expired job. A job cancelled by the store's
// own shutdown gets no second record for that reason (see Store.Start);
// a client's Cancel does. Replay also continues the id sequence, so
// restarted daemons never reuse a live client's job id.
//
// The journal is an availability aid, not a durability contract: records
// are appended without fsync, and replay skips torn or unparsable lines
// (at worst, a job created in the crashing instant is forgotten — which is
// indistinguishable from crashing before it was created).
type journal struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// record is one journal line.
type record struct {
	ID     string    `json:"id"`
	Seq    int       `json:"seq"`
	Status Status    `json:"status"`
	Err    string    `json:"err,omitempty"`
	Time   time.Time `json:"time"`
}

// interruptedErr is the failure text replayed jobs report.
const interruptedErr = "interrupted by daemon restart"

// openJournal replays dir/<prefix>.journal, compacts it down to its
// interrupted jobs (re-marked failed), and opens it for appending. The
// returned records are the interrupted jobs, oldest first; maxSeq is the
// highest sequence number ever journaled (0 on a fresh journal).
func openJournal(dir, prefix string) (*journal, []record, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: state dir: %w", err)
	}
	path := filepath.Join(dir, prefix+".journal")
	interrupted, maxSeq, err := replay(path)
	if err != nil {
		return nil, nil, 0, err
	}

	// Compact: the new journal carries one terminal record per interrupted
	// job, so the file is bounded by live history, not daemon lifetime.
	tmp, err := os.CreateTemp(dir, "."+prefix+".journal-*")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	enc := json.NewEncoder(tmp)
	for i := range interrupted {
		interrupted[i].Status = Failed
		interrupted[i].Err = interruptedErr
		if err := enc.Encode(interrupted[i]); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, nil, 0, fmt.Errorf("jobs: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	return &journal{path: path, f: f}, interrupted, maxSeq, nil
}

// maxLine is the longest line replay parses (the store's are ~100 bytes).
const maxLine = 1 << 20

// replay scans the journal at path; a missing journal is an empty one.
func replay(path string) ([]record, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	return replayFrom(f, maxLine)
}

// replayFrom reduces a journal to each job's last known state. It returns
// the jobs still marked running (oldest first) and the highest sequence
// number seen. Only a read error fails it: a torn tail, a foreign line and
// a line over limit bytes are each skipped and the rest replayed.
func replayFrom(r io.Reader, limit int) ([]record, int, error) {
	last := make(map[string]record)
	var order []string
	maxSeq := 0
	br := bufio.NewReader(r)
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if line = append(line, chunk...); err == bufio.ErrBufferFull {
			// Still inside the line: past the limit, keep only that fact.
			line = line[:min(len(line), limit+1)]
			continue
		}
		var rec record
		if len(line) <= limit && json.Unmarshal(line, &rec) == nil && rec.ID != "" {
			if _, seen := last[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			last[rec.ID] = rec
			maxSeq = max(maxSeq, rec.Seq)
		}
		line = line[:0]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("jobs: %w", err)
		}
	}
	var interrupted []record
	for _, id := range order {
		if rec := last[id]; rec.Status == Running {
			interrupted = append(interrupted, rec)
		}
	}
	return interrupted, maxSeq, nil
}

// append writes one record; failures are reported but non-fatal to the
// job (the caller logs and moves on — see the journal's durability note).
func (jn *journal) append(r record) error {
	if jn == nil {
		return nil
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	_, err = jn.f.Write(append(data, '\n'))
	return err
}

// Close releases the journal's file handle.
func (jn *journal) Close() error {
	if jn == nil {
		return nil
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.f.Close()
}
