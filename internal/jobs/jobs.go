// Package jobs is a generic asynchronous job store: create a job that
// runs in the background under the server's lifetime context, poll it by
// id, cancel it, and let finished jobs age out under a retention cap. It
// replaces the two copy-pasted managers cmd/eendd grew for sweeps and
// optimizations — one tested lifecycle (running → done | cancelled |
// failed) that every async endpoint shares, with the payload type V
// carrying whatever progress and results the endpoint tracks.
package jobs

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// The lifecycle: a job starts Running and ends in exactly one of the
// other three states.
const (
	Running   Status = "running"
	Done      Status = "done"
	Cancelled Status = "cancelled"
	Failed    Status = "failed"
)

// DefaultRetain is the retention cap applied when Options.Retain is not
// positive: how many finished jobs (with their result payloads) a store
// keeps for polling before evicting the oldest. Running jobs are never
// evicted.
const DefaultRetain = 32

// Options configures a Store.
type Options struct {
	// Prefix names the store's job ids: "sweep" yields sweep-1, sweep-2, …
	Prefix string
	// Retain caps how many finished jobs the store keeps (<= 0:
	// DefaultRetain). The oldest finished jobs are evicted first; running
	// jobs never are, so the live set can exceed the cap.
	Retain int
}

// Store owns a set of asynchronous jobs of one kind. Jobs run under the
// store's base context — a client may disconnect and poll later, but
// cancelling the base (server shutdown after the grace period) cancels
// every running job.
type Store[V any] struct {
	base   context.Context
	prefix string
	retain int

	jn *journal

	mu   sync.Mutex
	seq  int
	jobs map[string]*Job[V]
}

// NewStore builds an in-memory job store whose jobs run under base; a
// restart forgets everything. NewJournaled is the persistent variant.
func NewStore[V any](base context.Context, o Options) *Store[V] {
	if o.Prefix == "" {
		o.Prefix = "job"
	}
	if o.Retain <= 0 {
		o.Retain = DefaultRetain
	}
	return &Store[V]{
		base:   base,
		prefix: o.Prefix,
		retain: o.Retain,
		jobs:   make(map[string]*Job[V]),
	}
}

// NewJournaled builds a job store that journals status transitions to
// <dir>/<prefix>.journal and replays the journal on construction: jobs a
// previous process left running come back as Failed ("interrupted by
// daemon restart") so their clients learn the truth instead of a 404, and
// the id sequence continues where it left off. Payloads are not persisted
// — a replayed job carries its final status and a zero payload.
func NewJournaled[V any](base context.Context, dir string, o Options) (*Store[V], error) {
	s := NewStore[V](base, o)
	jn, interrupted, maxSeq, err := openJournal(dir, s.prefix)
	if err != nil {
		return nil, err
	}
	s.jn = jn
	s.seq = maxSeq
	for _, r := range interrupted {
		s.jobs[r.ID] = &Job[V]{
			id:      r.ID,
			seq:     r.Seq,
			created: r.Time,
			cancel:  func() {},
			status:  Failed,
			errText: r.Err,
		}
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// Close releases the store's journal handle (a nil journal is a no-op).
// Running jobs are unaffected; their final transitions simply stop being
// recorded, which the next replay reports as an interruption.
func (s *Store[V]) Close() error { return s.jn.Close() }

// Retain returns the store's effective retention cap.
func (s *Store[V]) Retain() int { return s.retain }

// Job is one asynchronous run with a payload of type V. The payload is
// only touched under the job's lock: writers go through Update, readers
// through Snapshot.
type Job[V any] struct {
	id      string
	seq     int
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	status   Status
	errText  string
	value    V
	finalize func(v *V)
}

// ID returns the job's store-unique id.
func (j *Job[V]) ID() string { return j.id }

// Created returns the job's creation time.
func (j *Job[V]) Created() time.Time { return j.created }

// Cancel cancels the job's context. The job reaches Cancelled when its
// run function returns; finished jobs are unaffected.
func (j *Job[V]) Cancel() { j.cancel() }

// Update mutates the payload under the job's lock. Run functions call it
// for every progress tick, so pollers always see a consistent payload.
func (j *Job[V]) Update(fn func(v *V)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(&j.value)
}

// Finalize registers fn to mutate the payload in the same critical
// section that publishes the job's final status, after the run function
// returns. Run functions use it for their result payload, so a poller
// can never observe a final result attached to a still-running job.
func (j *Job[V]) Finalize(fn func(v *V)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finalize = fn
}

// Snapshot returns the job's status, failure text (set only when Failed),
// and a copy of the payload, read atomically. V values that share
// underlying storage with the run function (slices, maps) must be copied
// by the run function before being stored, not by readers.
func (j *Job[V]) Snapshot() (Status, string, V) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.errText, j.value
}

// Status returns the job's current lifecycle state.
func (j *Job[V]) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// finished reports whether the job has left Running.
func (j *Job[V]) finished() bool { return j.Status() != Running }

// Start creates a job and launches run in the background. init seeds the
// payload before the job becomes visible, so a create response can carry
// totals without racing the runner. run's return value decides the final
// status: nil means Done; any error after the job's context was cancelled
// means Cancelled (the client asked for it — its error text is not a
// failure); any other error — a panic in run included — means Failed with
// the error recorded. A finalizer registered via Job.Finalize is applied
// atomically with the status transition.
func (s *Store[V]) Start(init func(v *V), run func(ctx context.Context, j *Job[V]) error) *Job[V] {
	ctx, cancel := context.WithCancel(s.base)
	s.mu.Lock()
	s.seq++
	j := &Job[V]{
		id:      fmt.Sprintf("%s-%d", s.prefix, s.seq),
		seq:     s.seq,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		status:  Running,
	}
	if init != nil {
		init(&j.value)
	}
	s.jobs[j.id] = j
	s.evictLocked()
	s.mu.Unlock()
	// Journal failures are deliberately non-fatal: the job still runs, at
	// worst its transition is lost to the next replay.
	_ = s.jn.append(record{ID: j.id, Seq: j.seq, Status: Running, Time: j.created})

	go func() {
		defer cancel()
		// A panic in run is this job's failure, settled and journaled like
		// any other (the stack goes to stderr) — not the process's, which
		// would take every other job and tenant with it.
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "jobs: %s panicked: %v\n%s", j.id, r, debug.Stack())
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return run(ctx, j)
		}()
		status, errText := Done, ""
		switch {
		case err == nil:
		case ctx.Err() != nil:
			status = Cancelled
		default:
			status, errText = Failed, err.Error()
		}
		// Journal before publishing: once a poller can observe the final
		// status, a restart's replay agrees with it. A job the dying store
		// itself cancelled (base done) stays running on disk, so the next
		// daemon resurrects it as interrupted; only a client's Cancel with
		// the base alive is a terminal record.
		if status != Cancelled || s.base.Err() == nil {
			_ = s.jn.append(record{ID: j.id, Seq: j.seq, Status: status, Err: errText, Time: time.Now()})
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.finalize != nil {
			j.finalize(&j.value)
			j.finalize = nil
		}
		j.status, j.errText = status, errText
	}()
	return j
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
// Callers hold s.mu.
func (s *Store[V]) evictLocked() {
	if len(s.jobs) <= s.retain {
		return
	}
	jobs := make([]*Job[V], 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	excess := len(jobs) - s.retain
	for _, j := range jobs {
		if excess == 0 {
			break
		}
		if j.finished() {
			delete(s.jobs, j.id)
			excess--
		}
	}
}

// Get returns a job by id.
func (s *Store[V]) Get(id string) (*Job[V], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every retained job, newest first.
func (s *Store[V]) Jobs() []*Job[V] {
	s.mu.Lock()
	jobs := make([]*Job[V], 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq > jobs[k].seq })
	return jobs
}

// Len returns the number of retained jobs.
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
