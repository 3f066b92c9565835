// Package obs is the deterministic observability layer of the simulation:
// per-request span trees timestamped with the sim kernel's virtual clock, a
// registry that reads the models' own counts once a run is over, and
// exporters for the Chrome trace-event format (Perfetto / chrome://tracing)
// and the Prometheus text exposition.
//
// Two invariants shape every API here (DESIGN.md §12):
//
//   - a nil sink is zero-cost: *Tracer and *Registry accept nil receivers
//     whose methods are no-ops, mirroring the faults.Injector pattern. The
//     models count in plain fields whether or not a registry is attached,
//     and register a reader of them only when one is, so the hot paths pay
//     a field add and allocate nothing;
//   - an enabled sink never perturbs the simulation: spans and counts are
//     recorded from kernel context but never feed back into it (no kernel
//     RNG draws, no scheduled events), so traced and untraced runs of the
//     same seed produce byte-identical results.
package obs

import (
	"slices"
	"strings"
)

// Sample is one snapshotted metric value.
type Sample struct {
	// Name is the full series name; per-label series encode their labels
	// Prometheus-style in the name itself, e.g.
	// `deploy_retries_total{cluster="egs-docker",phase="pull"}`. A gauge's
	// high-water mark is a gauge of its own, "<name>_max" (before the label
	// block, so the exposition stays well-formed).
	Name string
	// Kind is "counter" or "gauge".
	Kind string
	// Value is the sample value (counters are exact integers).
	Value float64
}

// Registry is the list of readers the models registered, each of which
// emits its model's series from the counts the model keeps. It is read once
// the run is over: Snapshot calls every reader, so it must not run while a
// model it reads is still counting. A nil *Registry is valid: it registers
// nothing and snapshots empty.
type Registry struct {
	readers []func(add func(Sample))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds read, which emits its series through add each time the
// registry is snapshotted. Nil registry: nothing is registered.
func (r *Registry) Register(read func(add func(Sample))) {
	if r == nil {
		return
	}
	r.readers = append(r.readers, read)
}

// Snapshot returns every series the readers emit, sorted by name. Series
// that share a name — one registry shared by rigs that run one after the
// other — merge into one: counters add up, and a gauge keeps its largest
// value, so a peak reads as the highest any rig reached. A nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var all []Sample
	add := func(s Sample) { all = append(all, s) }
	for _, read := range r.readers {
		read(add)
	}
	slices.SortStableFunc(all, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	out := all[:0]
	for _, s := range all {
		if n := len(out) - 1; n >= 0 && out[n].Name == s.Name {
			if s.Kind == "counter" {
				out[n].Value += s.Value
			} else {
				out[n].Value = max(out[n].Value, s.Value)
			}
			continue
		}
		out = append(out, s)
	}
	return out
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
