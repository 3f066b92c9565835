package experiments

import (
	"fmt"
	"strings"

	"transparentedge/internal/sim"
)

// ReplayScaleResult reports one large-trace replay measurement: the
// simulated request latencies plus the harness cost of producing them
// (wall clock, allocations, retained metrics memory).
type ReplayScaleResult struct {
	PointResult
	// RequestSpans counts the per-request root spans still held in the
	// tracer ring, which equals Requests whenever the ring capacity covers
	// the trace.
	RequestSpans int
	// Kernel is the DES kernel's introspection snapshot at end of run
	// (always populated; the counters are free and deterministic).
	Kernel sim.KernelStats
}

var replayScaleColumns = []column[ReplayScaleResult]{
	{"", "requests", "", func(r ReplayScaleResult) any { return r.Requests }},
	{"wall time", "wall_ms", "%v", func(r ReplayScaleResult) any { return hostWall(r.Wall) }},
	{"allocs/request", "allocs_per_req", "%.1f", func(r ReplayScaleResult) any { return r.AllocsPerRequest }},
	{"series memory", "series_bytes", "%d bytes", func(r ReplayScaleResult) any { return r.SeriesBytes }},
	{"median", "median_ms", "%v", func(r ReplayScaleResult) any { return r.Median }},
	{"/ p95", "p95_ms", "%v", func(r ReplayScaleResult) any { return r.P95 }},
	{"errors", "errors", "%d", func(r ReplayScaleResult) any { return r.Errors }},
	{"", "unfinished", "", func(r ReplayScaleResult) any { return r.Unfinished }},
	{"deployments", "deployments", "%d", func(r ReplayScaleResult) any { return r.Deployments }},
}

// String renders the measurement.
func (r ReplayScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay of %d requests\n", r.Requests)
	listing(&b, replayScaleColumns, r)
	return b.String()
}

// JSON returns the uniform result shape.
func (r ReplayScaleResult) JSON() JSONResult {
	m := map[string]float64{}
	flatten(m, "", replayScaleColumns, r)
	if r.Spans > 0 {
		m["spans"] = float64(r.Spans)
		m["request_spans"] = float64(r.RequestSpans)
	}
	kernelStatsMetrics(m, r.Kernel)
	return JSONResult{Experiment: "scale-replay", Metrics: m, Counters: r.Counters}
}

// ReplayScale replays a synthetic trace of the given length against the
// full Docker testbed and measures the harness cost.
func ReplayScale(seed int64, requests int, options ...Option) (ReplayScaleResult, error) {
	o := applyOpts(options)
	run, err := runPoint(o.point(seed, requests))
	if err != nil {
		return ReplayScaleResult{}, err
	}
	out := ReplayScaleResult{PointResult: run.PointResult, Kernel: run.kernel}
	for _, s := range o.trace.Spans() {
		if s.Name == "request" {
			out.RequestSpans++
		}
	}
	return out, nil
}

// ReplayShardResult reports one sharded multi-region replay: the simulated
// results (which must be bit-identical at every shard count) plus the
// harness cost of producing them.
type ReplayShardResult struct {
	PointResult
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
func (r ReplayShardResult) Fingerprint() uint64 {
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

var replayShardColumns = []column[ReplayShardResult]{
	{"", "requests", "", func(r ReplayShardResult) any { return r.Requests }},
	{"", "shards", "", func(r ReplayShardResult) any { return r.Shards }},
	{"", "regions", "", func(r ReplayShardResult) any { return r.Regions }},
	{"wall time", "wall_ms", "%v", func(r ReplayShardResult) any { return hostWall(r.Wall) }},
	{"allocs/request", "allocs_per_req", "%.1f", func(r ReplayShardResult) any { return r.AllocsPerRequest }},
	{"median", "median_ms", "%v", func(r ReplayShardResult) any { return r.Median }},
	{"/ p95", "p95_ms", "%v", func(r ReplayShardResult) any { return r.P95 }},
	{"errors", "errors", "%d", func(r ReplayShardResult) any { return r.Errors }},
	{"", "unfinished", "", func(r ReplayShardResult) any { return r.Unfinished }},
	{"deployments", "deployments", "%d", func(r ReplayShardResult) any { return r.Deployments }},
	// The full 64 bits, not a digest: the key predates the 52-bit convention.
	{"fingerprint", "fingerprint", "%016x", func(r ReplayShardResult) any { return r.Fingerprint() }},
}

// String renders the measurement.
func (r ReplayShardResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded replay of %d requests (%d regions, %d shards)\n", r.Requests, r.Regions, r.Shards)
	listing(&b, replayShardColumns, r)
	return b.String()
}

// JSON returns the uniform result shape.
func (r ReplayShardResult) JSON() JSONResult {
	m := map[string]float64{}
	flatten(m, "", replayShardColumns, r)
	if r.Spans > 0 {
		m["spans"] = float64(r.Spans)
	}
	groupStatsMetrics(m, r.Group)
	return JSONResult{Experiment: "scale-shard", Metrics: m, Counters: r.Counters}
}

// ReplayShard replays a synthetic trace of the given length against the
// sharded multi-region scenario (testbed.DefaultRegions edge sites plus a
// cloud backbone, one 20-client population per region) on the given number
// of kernels. shards == 1 is the serial degenerate case; any other value
// must produce a bit-identical Fingerprint, which the shard parity tests
// enforce.
func ReplayShard(seed int64, requests, shards int, options ...Option) (ReplayShardResult, error) {
	if shards < 1 {
		shards = 1
	}
	s := applyOpts(options).point(seed, requests)
	s.Shards = shards
	return replayShard(s)
}

func replayShard(s pointSpec) (ReplayShardResult, error) {
	run, err := runPoint(s)
	if err != nil {
		return ReplayShardResult{}, err
	}
	return ReplayShardResult{
		PointResult: run.PointResult,
		Shards:      run.rs.Group.Shards(),
		Regions:     len(run.rs.Sites),
		Group:       run.group,
	}, nil
}

// shardFingerprint is the parityGate fingerprint of the plain sharded replay.
func shardFingerprint(s pointSpec) (uint64, error) {
	r, err := replayShard(s)
	return r.Fingerprint(), err
}
