package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span or event.
type Attr struct {
	Key   string
	Value string
}

// A attaches a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt attaches an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", v)} }

// Event is one completed span (or zero-duration point) as written to a
// sink. StartUS is microseconds since the Unix epoch; DurUS the span's
// wall-clock duration in microseconds. Attrs keys render sorted so the
// JSON form of an event is deterministic given deterministic attributes.
type Event struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Sink receives completed trace events. Emit may be called concurrently.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per line to w.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink wraps w as a sink.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	s.w.Write(b)
	s.mu.Unlock()
}

// MemSink buffers events in memory, capped at a fixed size so a
// long-running job cannot grow without bound. The zero value is ready to
// use and holds up to DefaultMemSinkCap events.
type MemSink struct {
	mu      sync.Mutex
	events  []Event
	dropped int
	cap     int
}

// DefaultMemSinkCap bounds a MemSink built with NewMemSink.
const DefaultMemSinkCap = 100000

// NewMemSink returns a sink holding up to DefaultMemSinkCap events.
func NewMemSink() *MemSink { return &MemSink{cap: DefaultMemSinkCap} }

// Emit appends the event, dropping it if the sink is full.
func (s *MemSink) Emit(ev Event) {
	s.mu.Lock()
	if s.cap == 0 {
		s.cap = DefaultMemSinkCap
	}
	if len(s.events) < s.cap {
		s.events = append(s.events, ev)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// Events returns a copy of the buffered events.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Dropped reports how many events were discarded after the cap was hit.
func (s *MemSink) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// WriteJSONL writes the buffered events as JSONL to w.
func (s *MemSink) WriteJSONL(w io.Writer) error {
	for _, ev := range s.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Tracer records spans into a sink under one trace id. A nil *Tracer is
// the disabled tracer: Enabled reports false, Start returns a zero Span
// whose End is a no-op, and no call allocates.
type Tracer struct {
	trace string
	sink  Sink
}

// NewTracer builds a tracer writing to sink under the given trace id
// (normally TraceID of a workload fingerprint).
func NewTracer(trace string, sink Sink) *Tracer {
	return &Tracer{trace: trace, sink: sink}
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// ID returns the trace id ("" for the disabled tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

// Span is one in-progress interval. The zero Span (from a disabled
// tracer) is inert: End and Point on it do nothing, and its ID is "".
type Span struct {
	t      *Tracer
	id     string
	parent string
	name   string
	start  time.Time
}

// TraceID derives a trace identifier from a workload seed, normally a
// scenario or grid fingerprint. The same workload always yields the same
// trace id.
func TraceID(seed string) string {
	return hashID("trace", "", seed)
}

// hashID derives a 64-bit hex identifier from (name, parent, key) with
// FNV-1a. Deterministic: the same ancestry and key always produce the
// same id, independent of timing or scheduling.
func hashID(name, parent, key string) string {
	h := fnv.New64a()
	io.WriteString(h, parent)
	h.Write([]byte{0})
	io.WriteString(h, name)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Start opens a span under parent (use the zero Span for a root). The
// span id is derived from (parent id, name, key), so the same workload
// yields the same span tree run after run. key should be stable — a
// fingerprint, an index — not a timestamp.
func (t *Tracer) Start(parent Span, name, key string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{
		t:      t,
		id:     hashID(name, parent.id, key),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
}

// ID returns the span's deterministic identifier ("" when disabled).
func (s Span) ID() string { return s.id }

// End completes the span, emitting one event with the given attributes.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.sink.Emit(Event{
		Trace:   s.t.trace,
		Span:    s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   now.Sub(s.start).Microseconds(),
		Attrs:   attrMap(attrs),
	})
}

// Point emits a zero-duration child event under s — a timeline marker
// such as a best-so-far improvement during search.
func (s Span) Point(name, key string, attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.sink.Emit(Event{
		Trace:   s.t.trace,
		Span:    hashID(name, s.id, key),
		Parent:  s.id,
		Name:    name,
		StartUS: now.UnixMicro(),
		DurUS:   0,
		Attrs:   attrMap(attrs),
	})
}

// attrMap converts attributes to the map form events carry. Returns nil
// for none so empty attrs marshal as absent.
func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// SortEvents orders events deterministically: by start time, then span id.
// Useful before asserting on or displaying a trace.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].StartUS != events[j].StartUS {
			return events[i].StartUS < events[j].StartUS
		}
		return events[i].Span < events[j].Span
	})
}

// tracerKey carries a *Tracer through a context.
type tracerKey struct{}

// WithTracer returns a context carrying t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil (the disabled tracer).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
