package experiments

import (
	"fmt"
	"strings"

	"transparentedge/internal/sim"
)

// replayScaleResult reports one large-trace replay measurement: the
// simulated request latencies plus the harness cost of producing them
// (wall clock, allocations, retained metrics memory).
type replayScaleResult struct {
	pointResult
	// RequestSpans counts the per-request root spans still held in the
	// tracer ring, which equals Requests whenever the ring capacity covers
	// the trace.
	RequestSpans int
	// Kernel is the DES kernel's introspection snapshot at end of run
	// (always populated; the counters are free and deterministic).
	Kernel sim.KernelStats
}

var replayScaleColumns = []column[replayScaleResult]{
	{"", "requests", "", func(r replayScaleResult) any { return r.Requests }},
	{"wall time", "wall_ms", "%v", func(r replayScaleResult) any { return hostWall(r.Wall) }},
	{"allocs/request", "allocs_per_req", "%.1f", func(r replayScaleResult) any { return r.AllocsPerRequest }},
	{"series memory", "series_bytes", "%d bytes", func(r replayScaleResult) any { return r.SeriesBytes }},
	{"median", "median_ms", "%v", func(r replayScaleResult) any { return r.Median }},
	{"/ p95", "p95_ms", "%v", func(r replayScaleResult) any { return r.P95 }},
	{"errors", "errors", "%d", func(r replayScaleResult) any { return r.Errors }},
	{"", "unfinished", "", func(r replayScaleResult) any { return r.Unfinished }},
	{"deployments", "deployments", "%d", func(r replayScaleResult) any { return r.Deployments }},
}

// String renders the measurement, and the kernel's counters when the run
// was counted (the JSON always carries them, as kernel_*).
func (r replayScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay of %d requests\n", r.Requests)
	listing(&b, replayScaleColumns, r)
	if r.Counters != nil {
		fmt.Fprintf(&b, "  kernel           %s\n", r.Kernel)
	}
	return b.String()
}

// JSON returns the uniform result shape.
func (r replayScaleResult) JSON() JSONResult {
	m := map[string]float64{}
	flatten(m, "", replayScaleColumns, r)
	if r.Spans > 0 {
		m["spans"] = float64(r.Spans)
		m["request_spans"] = float64(r.RequestSpans)
	}
	kernelStatsMetrics(m, r.Kernel)
	return JSONResult{Experiment: "scale-replay", Metrics: m, Counters: r.Counters}
}

// replayScale replays a synthetic trace of p.ReplayRequests requests
// against the full Docker testbed and measures the harness cost.
func replayScale(p Params) (replayScaleResult, error) {
	run, err := runPoint(pointSpec{Seed: p.Seed, Requests: p.ReplayRequests, Trace: p.Trace, Counters: p.Counters, attrib: p.Attrib})
	if err != nil {
		return replayScaleResult{}, err
	}
	out := replayScaleResult{pointResult: run.pointResult, Kernel: run.kernel}
	for _, s := range p.Trace.Spans() {
		if s.Name == "request" {
			out.RequestSpans++
		}
	}
	return out, nil
}

// replayShardResult reports one sharded multi-region replay: the simulated
// results (which must be bit-identical at every shard count) plus the
// harness cost of producing them.
type replayShardResult struct {
	pointResult
	Shards  int
	Regions int
	// Group is the shard group's window-loop and per-kernel introspection
	// snapshot (always populated; excluded from Fingerprint — the wall
	// stall fields are machine-dependent).
	Group sim.GroupStats
}

// Fingerprint digests every deterministic simulated output: per-region
// request counts and series fingerprints plus the merged histogram. Wall
// time, allocations, and shard count are excluded — runs at different
// -shards values must fingerprint identically.
func (r replayShardResult) Fingerprint() uint64 {
	h := newFNV()
	h.u64(uint64(r.Requests))
	h.u64(uint64(r.Regions))
	h.u64(uint64(r.Errors))
	h.u64(uint64(r.Deployments))
	h.u64(uint64(r.Median))
	h.u64(uint64(r.P95))
	for _, n := range r.PerRegionRequests {
		h.u64(uint64(n))
	}
	if r.Totals != nil {
		h.u64(r.Totals.Fingerprint())
	}
	return uint64(h)
}

var replayShardColumns = []column[replayShardResult]{
	{"", "requests", "", func(r replayShardResult) any { return r.Requests }},
	{"", "shards", "", func(r replayShardResult) any { return r.Shards }},
	{"", "regions", "", func(r replayShardResult) any { return r.Regions }},
	{"wall time", "wall_ms", "%v", func(r replayShardResult) any { return hostWall(r.Wall) }},
	{"allocs/request", "allocs_per_req", "%.1f", func(r replayShardResult) any { return r.AllocsPerRequest }},
	{"median", "median_ms", "%v", func(r replayShardResult) any { return r.Median }},
	{"/ p95", "p95_ms", "%v", func(r replayShardResult) any { return r.P95 }},
	{"errors", "errors", "%d", func(r replayShardResult) any { return r.Errors }},
	{"", "unfinished", "", func(r replayShardResult) any { return r.Unfinished }},
	{"deployments", "deployments", "%d", func(r replayShardResult) any { return r.Deployments }},
	// The full 64 bits, not a digest: the key predates the 52-bit convention.
	{"fingerprint", "fingerprint", "%016x", func(r replayShardResult) any { return r.Fingerprint() }},
}

// String renders the measurement.
func (r replayShardResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded replay of %d requests (%d regions, %d shards)\n", r.Requests, r.Regions, r.Shards)
	listing(&b, replayShardColumns, r)
	return b.String()
}

// JSON returns the uniform result shape.
func (r replayShardResult) JSON() JSONResult {
	m := map[string]float64{}
	flatten(m, "", replayShardColumns, r)
	if r.Spans > 0 {
		m["spans"] = float64(r.Spans)
	}
	groupStatsMetrics(m, r.Group)
	return JSONResult{Experiment: "scale-shard", Metrics: m, Counters: r.Counters}
}

// replayShard replays a synthetic trace of p.ReplayRequests requests
// against the sharded multi-region scenario (testbed.DefaultRegions edge
// sites plus a cloud backbone, one 20-client population per region) on
// p.Shards kernels. One shard is the serial degenerate case; any other
// count must produce a bit-identical Fingerprint, which the shard parity
// tests enforce.
func replayShard(p Params) (replayShardResult, error) {
	return shardRun(pointSpec{Seed: p.Seed, Requests: p.ReplayRequests, Shards: max(p.Shards, 1),
		Trace: p.Trace, Counters: p.Counters, attrib: p.Attrib})
}

// shardRun runs s, a point of the sharded scenario.
func shardRun(s pointSpec) (replayShardResult, error) {
	run, err := runPoint(s)
	if err != nil {
		return replayShardResult{}, err
	}
	return replayShardResult{
		pointResult: run.pointResult,
		Shards:      run.rs.Group.Shards(),
		Regions:     len(run.rs.Sites),
		Group:       run.group,
	}, nil
}

// shardFingerprint is the parityGate fingerprint of the plain sharded replay.
func shardFingerprint(s pointSpec) (uint64, error) {
	r, err := shardRun(s)
	return r.Fingerprint(), err
}
