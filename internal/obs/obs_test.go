package obs

import (
	"slices"
	"testing"
	"time"
)

// emits returns a reader that emits samples.
func emits(samples ...Sample) func(func(Sample)) {
	return func(add func(Sample)) {
		for _, s := range samples {
			add(s)
		}
	}
}

// TestCounterAndGauge pins the merge of series that share a name: counters
// add up and a gauge keeps its largest value, whatever order the readers
// were registered in.
func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Register(emits(Sample{"requests_total", "counter", 2}, Sample{"inflight_max", "gauge", 5}))
	r.Register(emits(Sample{"requests_total", "counter", 3}, Sample{"inflight_max", "gauge", 4}))
	m := r.Map()
	if m["requests_total"] != 5 || m["inflight_max"] != 5 || len(m) != 2 {
		t.Fatalf("Map() = %v, want requests_total 5 and inflight_max 5", m)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Register(emits(Sample{"zzz_total", "counter", 1}, Sample{"mid", "gauge", 7}))
	r.Register(emits(Sample{"aaa_total", "counter", 2}, Sample{"mid_max", "gauge", 7}))
	snap := r.Snapshot()
	want := []Sample{
		{"aaa_total", "counter", 2},
		{"mid", "gauge", 7},
		{"mid_max", "gauge", 7},
		{"zzz_total", "counter", 1},
	}
	if !slices.Equal(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	var r *Registry
	r.Register(emits(Sample{"x", "counter", 1}))
	if r.Snapshot() != nil || r.Map() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	var tr *Tracer
	if tr.NextID() != 0 {
		t.Fatal("nil tracer NextID != 0")
	}
	tr.Emit(Span{Name: "x"})
	tr.SetSink(func(Span) {})
	if tr.Spans() != nil || tr.Emitted() != 0 {
		t.Fatal("nil tracer not inert")
	}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(Span{Name: "x", Cat: "y"}) }); allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per span, want 0", allocs)
	}
}

// TestTracerRingWraparound proves that at capacity the oldest spans are
// dropped — never corrupted — and that Spans() returns the retained window
// oldest-first.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Emit(Span{Name: "s", Start: time.Duration(i)})
	}
	if got := tr.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		want := time.Duration(7 + i) // newest four are 7..10, oldest-first
		if s.Start != want {
			t.Fatalf("spans[%d].Start = %v, want %v", i, s.Start, want)
		}
		if s.ID != uint64(7+i) || s.Root != s.ID {
			t.Fatalf("spans[%d] has ID %d Root %d, want ID %d == Root", i, s.ID, s.Root, 7+i)
		}
	}
}

func TestTracerSinkSeesEverySpan(t *testing.T) {
	tr := NewTracer(2) // tiny ring: the sink must still see all spans
	var got []uint64
	tr.SetSink(func(s Span) { got = append(got, s.ID) })
	for i := 0; i < 5; i++ {
		tr.Emit(Span{Name: "s"})
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d spans, want 5", len(got))
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("sink span %d has ID %d, want %d", i, id, i+1)
		}
	}
}

func TestSpanTreeDefaults(t *testing.T) {
	tr := NewTracer(8)
	root := tr.NextID()
	tr.Emit(Span{Parent: root, Name: "child"}) // root defaults to parent
	tr.Emit(Span{ID: root, Name: "root"})      // pre-allocated ID kept
	spans := tr.Spans()
	if spans[0].Root != root || spans[0].Parent != root {
		t.Fatalf("child span roots to %d, want %d", spans[0].Root, root)
	}
	if spans[1].ID != root || spans[1].Root != root || spans[1].Parent != 0 {
		t.Fatalf("root span = %+v, want ID=Root=%d Parent=0", spans[1], root)
	}
}

func TestEventStringFormats(t *testing.T) {
	e := Event{Kind: EvDispatched, Service: "svc", Client: "10.0.1.1",
		Cluster: "egs-docker", Addr: "10.0.0.20", Port: 31000}
	want := "svc: 10.0.1.1 -> egs-docker (10.0.0.20:31000)"
	if got := e.String(); got != want {
		t.Fatalf("event string %q, want %q", got, want)
	}
}
