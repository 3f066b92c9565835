package workload

import (
	"fmt"

	"transparentedge/internal/metrics"
	"transparentedge/internal/testbed"
)

// ShardReplayResult aggregates one sharded trace replay.
type ShardReplayResult struct {
	// PerRegion holds each site's replay result, indexed by region. Every
	// per-region series is accumulated on that region's kernel only, so
	// window workers never share a sink; scenario totals are merged from
	// them in region order (deterministic at every shard count).
	PerRegion []*ReplayResult
	// Totals is the merged client-measured total-time histogram.
	Totals *metrics.Hist
	// Errors counts failed requests across all regions.
	Errors int
	// Unfinished counts requests still incomplete at the run bound across
	// all regions (see ReplayResult.Unfinished).
	Unfinished int
	// Deployments counts first-requests (= on-demand deployments) across
	// all regions.
	Deployments int
}

// ReplaySharded replays a trace against a sharded multi-region scenario: the
// replay engine of ReplayWith (siteReplay), staged once per site. Requests
// and handovers partition by client — global client c is local client c / R
// of region c % R — and each region registers its own instances of the
// trace's services: every site deploys on demand for its own clients (the
// paper's single-site scenario, tiled). Preparation runs per region and each
// region's lanes anchor at its own preparation end, exactly as on the single
// site. The sites read the caller's trace in place, which must not change
// until the call returns.
//
// Spans and counters go to the per-region handles built into rs
// (testbed.RegionOptions.Traced / Counted); opts.Trace and opts.Counters
// must be nil, because one tracer or registry would be written by concurrent
// window workers.
func ReplaySharded(rs *testbed.Regions, trace *Trace, serviceKey string, opts Options) (*ShardReplayResult, error) {
	runs, err := stageSharded(rs, trace, serviceKey, opts)
	if err != nil {
		return nil, err
	}

	rs.Group.RunUntil(runBound(trace))

	res := &ShardReplayResult{
		PerRegion: make([]*ReplayResult, len(runs)),
		Totals:    metrics.NewHist(serviceKey + "/totals"),
	}
	for d, run := range runs {
		rres := run.finish()
		res.PerRegion[d] = rres
		res.Errors += rres.Errors
		res.Unfinished += rres.Unfinished
		res.Deployments += rres.FirstRequests.Len()
		if err := res.Totals.Merge(rres.Totals.ToHist()); err != nil {
			return nil, fmt.Errorf("workload: merging region %d totals: %w", d, err)
		}
	}
	return res, nil
}

// stageSharded validates a sharded replay's inputs and stages it on every
// site; see ReplaySharded.
func stageSharded(rs *testbed.Regions, trace *Trace, serviceKey string, opts Options) ([]*siteReplay, error) {
	regions := len(rs.Sites)
	if regions == 0 {
		return nil, fmt.Errorf("workload: region set has no sites")
	}
	if opts.Trace != nil || opts.Counters != nil {
		return nil, fmt.Errorf("workload: ReplaySharded takes no Options.Trace/Counters; " +
			"build the regions with testbed.RegionOptions.Traced/Counted and read each site's handles")
	}
	if err := validate(rs.Sites, trace, opts.Handovers); err != nil {
		return nil, err
	}

	// Partition by home region, preserving trace and schedule order. A
	// region's requests are an index into the caller's trace, 4 B a request
	// (a lone region has none and reads the trace whole); its handovers are a
	// copy. Each is sized by a counting pass first, so it is allocated once.
	idx := make([][]int32, regions)
	moves := make([][]Handover, regions)
	reqsIn, movesIn := make([]int, regions), make([]int, regions)
	for _, r := range trace.Requests {
		reqsIn[r.Client%regions]++
	}
	for _, h := range opts.Handovers {
		movesIn[h.Client%regions]++
	}
	for d := range idx {
		if regions > 1 {
			idx[d] = make([]int32, 0, reqsIn[d])
		}
		moves[d] = make([]Handover, 0, movesIn[d])
	}
	if regions > 1 {
		for i, r := range trace.Requests {
			d := r.Client % regions
			idx[d] = append(idx[d], int32(i))
		}
	}
	for _, h := range opts.Handovers {
		d := h.Client % regions
		h.Client /= regions
		moves[d] = append(moves[d], h)
	}

	runs := make([]*siteReplay, regions)
	for d, site := range rs.Sites {
		siteOpts := opts
		siteOpts.Handovers = moves[d]
		siteOpts.Trace, siteOpts.Counters = site.Trace, site.Counters
		run, err := stage(site, fmt.Sprintf("%s/r%d", serviceKey, d), serviceKey, trace, idx[d], regions, siteOpts)
		if err != nil {
			return nil, err
		}
		runs[d] = run
	}
	return runs, nil
}
