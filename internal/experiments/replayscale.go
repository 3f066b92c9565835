package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// ReplayScaleResult reports one large-trace replay measurement: the
// simulated request latencies plus the harness cost of producing them
// (wall clock, allocations, retained metrics memory).
type ReplayScaleResult struct {
	Requests int
	// Wall is the host wall-clock time of the whole replay (trace
	// generation excluded).
	Wall time.Duration
	// AllocsPerRequest is heap allocations divided by trace length —
	// the number the replay engine keeps flat in trace size.
	AllocsPerRequest float64
	// SeriesBytes is the memory retained by the result series after the
	// replay; bounded by the histogram threshold, not the trace length.
	SeriesBytes int
	// Errors, Median and P95 summarize the simulated replay itself.
	Errors int
	Median time.Duration
	P95    time.Duration
	// Deployments is the number of distinct services deployed on demand.
	Deployments int
	// Spans is the total span count emitted when the run was traced (0
	// untraced); RequestSpans counts the per-request root spans still held
	// in the tracer ring, which equals Requests whenever the ring capacity
	// covers the trace.
	Spans        uint64
	RequestSpans int
	// Counters is the registry snapshot when counters were attached.
	Counters map[string]float64
	// Kernel is the DES kernel's introspection snapshot at end of run
	// (always populated; the counters are free and deterministic).
	Kernel sim.KernelStats
}

// String renders the measurement.
func (r ReplayScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay of %d requests\n", r.Requests)
	fmt.Fprintf(&b, "  wall time        %v\n", r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  allocs/request   %.1f\n", r.AllocsPerRequest)
	fmt.Fprintf(&b, "  series memory    %d bytes\n", r.SeriesBytes)
	fmt.Fprintf(&b, "  median / p95     %v / %v\n", r.Median.Round(time.Microsecond), r.P95.Round(time.Microsecond))
	fmt.Fprintf(&b, "  errors           %d\n", r.Errors)
	fmt.Fprintf(&b, "  deployments      %d\n", r.Deployments)
	return b.String()
}

// replayScaleConfig builds the synthetic large-trace config: a fixed small
// service set (the scaling axis is requests, not deployments) with arrivals
// spread so in-flight concurrency stays moderate as the trace grows.
func replayScaleConfig(seed int64, requests int) workload.Config {
	dur := time.Duration(requests) * 300 * time.Microsecond
	if dur < time.Minute {
		dur = time.Minute
	}
	return workload.Config{
		Seed:          seed,
		Services:      8,
		TotalRequests: requests,
		MinPerService: 2,
		Duration:      dur,
		Clients:       20,
		ZipfS:         1.15,
		FrontLoad:     1.1,
	}
}

// ReplayScale replays a synthetic trace of the given length against the
// full Docker testbed and measures the harness cost.
func ReplayScale(seed int64, requests int, options ...Option) ReplayScaleResult {
	o := applyOpts(options)
	if requests < 8*2 {
		requests = 8 * 2
	}
	trace := workload.Generate(replayScaleConfig(seed, requests))
	tr := o.attribTracer()
	tb := testbed.New(testbed.Options{
		Seed: seed, EnableDocker: true,
		Trace: tr, Counters: o.counters,
		SteerBackend: o.steer,
	})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := workload.ReplayWith(tb, trace, catalog.Nginx, workload.Options{
		PrePull: true, PreCreate: true,
		Trace: tr, Counters: o.counters,
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		panic(err)
	}

	out := ReplayScaleResult{
		Requests:         requests,
		Wall:             wall,
		AllocsPerRequest: float64(after.Mallocs-before.Mallocs) / float64(len(trace.Requests)),
		SeriesBytes:      res.Totals.RetainedBytes() + res.FirstRequests.RetainedBytes(),
		Errors:           res.Errors,
		Median:           res.Totals.Median(),
		P95:              res.Totals.Percentile(95),
		Deployments:      res.FirstRequests.Len(),
		Counters:         o.counters.Map(),
		Kernel:           tb.K.Stats(),
	}
	o.attrib.EndStream()
	if o.trace != nil {
		out.Spans = o.trace.Emitted()
		for _, s := range o.trace.Spans() {
			if s.Name == "request" {
				out.RequestSpans++
			}
		}
	}
	return out
}
