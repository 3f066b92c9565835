package experiments

import (
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
)

// runOpts carries the cross-cutting observability wiring an experiment
// runner accepts, plus the steering backend the backend sweeps set on the
// points they build. The zero value (no tracer, no registry, default
// backend) is the default zero-cost path — identical behavior to a build
// without obs at all.
type runOpts struct {
	trace    *obs.Tracer
	counters *obs.Registry
	steer    string
	attrib   *attrib.Collector
}

// Option configures an experiment runner. Runners take variadic Options so
// existing call sites compile unchanged.
type Option func(*runOpts)

// WithTrace attaches a span tracer to the runner's testbed and workload:
// every intercepted request and deployment phase is recorded as a span in
// virtual time. Nil is accepted and means "off".
func WithTrace(tr *obs.Tracer) Option {
	return func(o *runOpts) { o.trace = tr }
}

// WithCounters attaches a counter/gauge registry to the runner's testbed:
// dispatcher, deployer, flow-memory, fault and network counters accumulate
// into it and can be snapshotted mid-run. Nil is accepted and means "off".
func WithCounters(reg *obs.Registry) Option {
	return func(o *runOpts) { o.counters = reg }
}

// WithAttrib streams every span the run emits into a latency-attribution
// collector (critical paths, per-phase exclusive time, flame stacks, SLO
// watching). Implies tracing internally even when no WithTrace tracer is
// attached; the collector is a passive sink, so the run's deterministic
// outputs are unchanged. Sharded runners call the collector's EndStream at
// each per-site tracer boundary (root span IDs are only unique per
// tracer). Nil is accepted and means "off".
func WithAttrib(col *attrib.Collector) Option {
	return func(o *runOpts) { o.attrib = col }
}

func applyOpts(options []Option) runOpts {
	var o runOpts
	for _, opt := range options {
		opt(&o)
	}
	return o
}

// attribTracer returns the tracer single-kernel runners should wire into
// their testbed and workload: the caller's own tracer when no attribution
// is requested, otherwise a minimal internal tracer whose sink streams
// every span into the collector and forwards it (IDs intact) to the
// caller's tracer, if any. Span IDs are assigned by the internal tracer,
// exactly as they would have been by the caller's — emission order is
// unchanged, so traced output stays byte-identical.
func (o runOpts) attribTracer() *obs.Tracer {
	if o.attrib == nil {
		return o.trace
	}
	tr := obs.NewTracer(1)
	col, fwd := o.attrib, o.trace
	tr.SetSink(func(s obs.Span) {
		col.Observe(s)
		fwd.Emit(s)
	})
	return tr
}
