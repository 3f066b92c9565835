// Package obs is the deterministic observability layer of the simulation:
// per-request span trees timestamped with the sim kernel's virtual clock, an
// atomic counter/gauge registry, and exporters for the Chrome trace-event
// format (Perfetto / chrome://tracing) and the Prometheus text exposition.
//
// Two invariants shape every API here (DESIGN.md §12):
//
//   - a nil sink is zero-cost: *Counter, *Gauge, *Tracer and *Registry all
//     accept nil receivers whose methods are no-ops, mirroring the
//     faults.Injector pattern, so instrumented hot paths pay only an
//     inlined nil check — and allocate nothing — when observability is off;
//   - an enabled sink never perturbs the simulation: spans and counters are
//     recorded from kernel context but never feed back into it (no kernel
//     RNG draws, no scheduled events), so traced and untraced runs of the
//     same seed produce byte-identical results.
package obs

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// valid and counts nothing at zero cost.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that additionally tracks its
// high-water mark (the registry snapshots it as "<name>_max"). A nil *Gauge
// is valid and records nothing.
type Gauge struct {
	v  atomic.Int64
	hi atomic.Int64
}

// Add moves the gauge by d, updating the high-water mark.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	v := g.v.Add(d)
	for {
		hi := g.hi.Load()
		if v <= hi || g.hi.CompareAndSwap(hi, v) {
			return
		}
	}
}

// Set replaces the gauge value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		hi := g.hi.Load()
		if v <= hi || g.hi.CompareAndSwap(hi, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the high-water mark (0 for a nil gauge).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi.Load()
}

// RaiseHigh lifts the high-water mark to at least h without touching the
// instantaneous value. Aggregators use it to carry a source gauge's peak
// into a merged registry even when the source has since drained to zero —
// the merged snapshot still reports the peak under "<name>_max".
func (g *Gauge) RaiseHigh(h int64) {
	if g == nil {
		return
	}
	for {
		hi := g.hi.Load()
		if h <= hi || g.hi.CompareAndSwap(hi, h) {
			return
		}
	}
}

// Sample is one snapshotted metric value.
type Sample struct {
	// Name is the full series name; per-label series encode their labels
	// Prometheus-style in the name itself, e.g.
	// `deploy_retries_total{cluster="egs-docker",phase="pull"}`.
	Name string
	// Kind is "counter" or "gauge".
	Kind string
	// Value is the sample value (counters are exact integers).
	Value float64
}

// Registry hands out named counters and gauges and snapshots them mid-run.
// Handles are resolved once (a mutex-guarded map lookup) and then updated
// with plain atomics, so resolution cost is paid at construction, not per
// event. A nil *Registry is valid: Counter and Gauge return nil handles,
// keeping the whole chain zero-cost.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns (creating if needed) the named counter. Nil registry →
// nil counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil registry → nil
// gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot returns every registered series sorted by name, safe to call
// while the run is still updating counters. Gauges contribute two samples:
// the instantaneous value and "<name>_max", the high-water mark. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.counters)+2*len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: "gauge", Value: float64(g.Value())})
		out = append(out, Sample{Name: maxName(name), Kind: "gauge", Value: float64(g.High())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxName derives the high-water series name for a gauge. For label-bearing
// names the suffix goes on the metric name, before the label block —
// `pool{r="a"}` becomes `pool_max{r="a"}` — so the exposition stays
// well-formed and the peak survives a round trip through a spec-conformant
// parser even after the gauge itself has drained back to zero.
func maxName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + "_max" + name[i:]
	}
	return name + "_max"
}

// EachGauge yields every registered gauge (sorted by name) with its
// instantaneous value and high-water mark. Aggregators that fold per-shard
// registries together use it to merge gauges without re-parsing snapshot
// sample names. A nil registry yields nothing.
func (r *Registry) EachGauge(f func(name string, value, high int64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := slices.Sorted(maps.Keys(r.gauges))
	gauges := make([]*Gauge, len(names))
	for i, n := range names {
		gauges[i] = r.gauges[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		f(n, gauges[i].Value(), gauges[i].High())
	}
}

// Map returns the snapshot as a flat name → value map (the shape the
// uniform JSON results embed as their "counters" block).
func (r *Registry) Map() map[string]float64 {
	if r == nil {
		return nil
	}
	samples := r.Snapshot()
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}
