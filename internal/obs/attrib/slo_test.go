package attrib

import (
	"testing"
	"time"

	"transparentedge/internal/obs"
)

func TestParseSLO(t *testing.T) {
	cases := []struct {
		in   string
		want SLO
		ok   bool
	}{
		{"p99=2ms", SLO{Quantile: 99, Threshold: 2 * time.Millisecond}, true},
		{"request:p99=2ms", SLO{Root: "request", Quantile: 99, Threshold: 2 * time.Millisecond}, true},
		{"dispatch:p50=300us", SLO{Root: "dispatch", Quantile: 50, Threshold: 300 * time.Microsecond}, true},
		{"request:p99.9=5ms", SLO{Root: "request", Quantile: 99.9, Threshold: 5 * time.Millisecond}, true},
		{"p0=1ms", SLO{}, false},
		{"p101=1ms", SLO{}, false},
		{"pNaN=1ms", SLO{}, false},
		{"p99=", SLO{}, false},
		{"p99=-3ms", SLO{}, false},
		{"99=2ms", SLO{}, false},
		{"", SLO{}, false},
		{"request:", SLO{}, false},
		{"handover:p90=1s", SLO{Root: "handover", Quantile: 90, Threshold: time.Second}, true},
		{":p99=2ms", SLO{Quantile: 99, Threshold: 2 * time.Millisecond}, true}, // empty root: any
		{"dispach:p99=1us", SLO{}, false},                                      // no emitter has that root
		{"deploy:p99=1ms", SLO{}, false},                                       // a child span, never a root
	}
	for _, tc := range cases {
		got, err := ParseSLO(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSLO(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if slos, err := ParseSLOs("p99=2ms, dispatch:p50=300us"); err != nil || len(slos) != 2 {
		t.Errorf("ParseSLOs = %v, %v; want 2 SLOs", slos, err)
	}
	if slos, err := ParseSLOs(""); err != nil || slos != nil {
		t.Errorf("ParseSLOs(\"\") = %v, %v; want nil, nil", slos, err)
	}
	// Round trip through String.
	s := SLO{Root: "request", Quantile: 99.9, Threshold: 5 * time.Millisecond}
	if back, err := ParseSLO(s.String()); err != nil || back != s {
		t.Errorf("ParseSLO(%q) = %+v, %v; want %+v", s.String(), back, err, s)
	}
}

// TestSLOBreachFiresOnceWithFlightDump drives request roots under the
// threshold through warm-up, then past it: the breach must fire exactly
// once, after DefaultSLOMinSamples, with the flight dump ending at the
// tipping tree.
func TestSLOBreachFiresOnceWithFlightDump(t *testing.T) {
	var fired []Breach
	c := New(Options{
		FlightTrees: 4,
		SLOs:        []SLO{{Root: "request", Quantile: 99, Threshold: 2 * time.Millisecond}},
		OnBreach:    func(b Breach) { fired = append(fired, b) },
	})
	emit := func(i int, d time.Duration) {
		id := uint64(i + 1)
		c.Observe(obs.Span{ID: id, Root: id, Name: "request",
			Start: 0, End: d})
	}
	// The first request is slow, so a p99 of the samples so far breaches,
	// but the warm-up holds the verdict until DefaultSLOMinSamples; the
	// fast requests that follow keep it under the threshold meanwhile.
	emit(0, 50*time.Millisecond)
	for i := 1; i < DefaultSLOMinSamples-1; i++ {
		emit(i, time.Millisecond)
	}
	if len(fired) != 0 {
		t.Fatalf("breach fired during warm-up")
	}
	// The last warm-up request is slow: p99 of {1ms x98, 50ms x2} > 2ms.
	emit(DefaultSLOMinSamples-1, 50*time.Millisecond)
	if len(fired) != 1 {
		t.Fatalf("breaches = %d, want 1", len(fired))
	}
	b := fired[0]
	if b.Root != "request" || b.Samples != DefaultSLOMinSamples || b.Observed <= 2*time.Millisecond {
		t.Errorf("breach = %+v, want root=request samples=%d observed>2ms", b, DefaultSLOMinSamples)
	}
	if len(b.Trees) != 4 {
		t.Fatalf("flight dump = %d trees, want 4 (ring capacity)", len(b.Trees))
	}
	last := b.Trees[len(b.Trees)-1]
	if last[0].End != 50*time.Millisecond {
		t.Errorf("newest dumped tree end = %v, want the 50ms tipping tree", last[0].End)
	}
	// Further slow requests must not re-fire.
	for i := DefaultSLOMinSamples; i < DefaultSLOMinSamples+10; i++ {
		emit(i, 50*time.Millisecond)
	}
	if len(fired) != 1 {
		t.Errorf("breach re-fired: %d total", len(fired))
	}
	if r := c.Report(); len(r.Breaches) != 1 {
		t.Errorf("report breaches = %d, want 1", len(r.Breaches))
	}
}

// TestSLOEmptyRootMatchesPerRoot checks an SLO without a root name arms
// against every root name independently.
func TestSLOEmptyRootMatchesPerRoot(t *testing.T) {
	c := New(Options{
		SLOs: []SLO{{Quantile: 50, Threshold: time.Millisecond}},
	})
	id := uint64(0)
	emit := func(name string, d time.Duration) {
		id++
		c.Observe(obs.Span{ID: id, Root: id, Name: name, Start: 0, End: d})
	}
	for range DefaultSLOMinSamples {
		emit("request", 5*time.Millisecond)
		emit("dispatch", 5*time.Millisecond)
	}
	r := c.Report()
	if len(r.Breaches) != 2 {
		t.Fatalf("breaches = %d, want 2 (one per root name)", len(r.Breaches))
	}
	if r.Breaches[0].Root == r.Breaches[1].Root {
		t.Errorf("both breaches on root %q", r.Breaches[0].Root)
	}
}
