package obs

import (
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	if r.Counter("requests_total") != c {
		t.Fatalf("second resolve returned a different counter handle")
	}

	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge value = %d, want 1", got)
	}
	if got := g.High(); got != 5 {
		t.Fatalf("gauge high-water = %d, want 5", got)
	}
	g.Set(2)
	if got, hi := g.Value(), g.High(); got != 2 || hi != 5 {
		t.Fatalf("after Set: value %d high %d, want 2 and 5", got, hi)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total").Inc()
	r.Counter("aaa_total").Add(2)
	r.Gauge("mid").Set(7)
	snap := r.Snapshot()
	want := []struct {
		name  string
		kind  string
		value float64
	}{
		{"aaa_total", "counter", 2},
		{"mid", "gauge", 7},
		{"mid_max", "gauge", 7},
		{"zzz_total", "counter", 1},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d: %+v", len(snap), len(want), snap)
	}
	for i, w := range want {
		if snap[i].Name != w.name || snap[i].Kind != w.kind || snap[i].Value != w.value {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], w)
		}
	}
	m := r.Map()
	if m["aaa_total"] != 2 || m["mid_max"] != 7 {
		t.Fatalf("Map() = %v", m)
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Add(1)
	g.Set(2)
	if g.Value() != 0 || g.High() != 0 {
		t.Fatal("nil gauge not zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	if r.Snapshot() != nil || r.Map() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	var tr *Tracer
	if tr.NextID() != 0 {
		t.Fatal("nil tracer NextID != 0")
	}
	tr.Emit(Span{Name: "x"})
	tr.SetSink(func(Span) {})
	if tr.Spans() != nil || tr.Emitted() != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer not inert")
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
