package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed interval of a request's path through the dispatch
// pipeline, timestamped with the sim kernel's virtual clock. Spans form
// trees via Parent; Root identifies the tree (the Chrome exporter maps each
// tree to its own track).
type Span struct {
	// ID is the tracer-unique span ID (1-based; 0 means "no span").
	ID uint64
	// Parent is the enclosing span's ID (0 for a root span).
	Parent uint64
	// Root is the ID of the tree's root span (== ID for roots).
	Root uint64
	// Name is the pipeline step ("request", "dispatch", "deploy", "pull",
	// "probe", ...); Cat groups related names for trace-viewer filtering.
	Name string
	Cat  string
	// Detail annotates the span (service, cluster, client).
	Detail string
	// Start/End are virtual times (durations since simulation start).
	Start time.Duration
	End   time.Duration
	// Attempts counts operation attempts within the span (0 = not an
	// attempted operation, 1 = clean first try).
	Attempts int
	// Err is the error text when the spanned step failed ("" = ok).
	Err string
}

// Dur returns the span's virtual duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer collects completed spans into a fixed-size ring buffer, so memory
// never grows with request count: at capacity the oldest span is
// overwritten. An optional sink additionally streams every span as it is
// emitted (the CLI connects a ChromeWriter there, keeping full traces of
// million-request replays on disk while the ring stays small).
//
// A nil *Tracer is valid: NextID returns 0 and Emit does nothing, so
// instrumented code pays one inlined nil check when tracing is off.
// Methods are safe for concurrent use (parallel sweep variants each own a
// tracer, but a shared tracer must not corrupt the ring).
type Tracer struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	ring  []Span
	next  int    // ring slot the next span lands in
	total uint64 // spans emitted over the tracer's lifetime
	sink  func(Span)
}

// DefaultTracerCapacity is the ring size NewTracer uses for capacity <= 0.
const DefaultTracerCapacity = 1 << 16

// NewTracer returns a tracer whose ring holds capacity spans (<= 0 selects
// DefaultTracerCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// SetSink attaches a streaming sink invoked synchronously for every emitted
// span (after it is placed in the ring). The sink must not call back into
// the tracer.
func (t *Tracer) SetSink(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// NextID allocates a span ID (0 on a nil tracer). IDs are assigned in
// emission-independent order, so a span's ID can be handed to children
// before the span itself is emitted.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Emit records a completed span. Spans without an ID are assigned one; a
// span without a Root becomes its own root.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.seq.Add(1)
	}
	if s.Root == 0 {
		if s.Parent != 0 {
			s.Root = s.Parent
		} else {
			s.Root = s.ID
		}
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(s)
	}
}

// Spans returns the retained spans oldest-first (a copy; at most the ring
// capacity, the newest spans win). Nil tracer → nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Emitted returns how many spans were emitted over the tracer's lifetime
// (>= len(Spans()): the ring drops the oldest at capacity).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
