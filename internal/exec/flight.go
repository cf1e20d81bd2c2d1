package exec

import (
	"context"
	"errors"
	"sync"
)

var errLeaderPanicked = errors.New("exec: flight leader panicked")

// flightCall is one in-flight keyed computation.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Flight is the runtime's one in-flight coalescer, for layers whose
// callers really are concurrent: the Simulated objective uses one so
// parallel restarts evaluating the same scenario fingerprint share a
// single simulator run. (A batch submitted in one piece needs none —
// RunBatch groups its input by fingerprint before submission.) The zero
// value is ready to use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// DoContext runs fn under key, coalescing concurrent callers: while one
// call for key is in flight, later callers wait for its value instead of
// invoking fn, and shared reports that the result came from another
// caller's run. A follower stops waiting when ctx is done and returns
// ctx's error (shared false — it got no value); the leader always runs fn
// to completion under its own cancellation rules, so a follower's
// cancellation never aborts the shared run. Once a call completes, the
// key is forgotten — completed values are the cache layer's business,
// DoContext only deduplicates the in-flight window.
func (f *Flight) DoContext(ctx context.Context, key string, fn func() (any, error)) (v any, err error, shared bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	// A leader whose fn panics still releases its followers, with an error:
	// the panic travels on to whoever recovers it (a scheduler worker), and
	// nobody is left waiting on a call that will never finish.
	c := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	f.calls[key] = c
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
