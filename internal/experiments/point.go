package experiments

import (
	"fmt"
	"runtime"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// replayScaleConfig builds the synthetic large-trace config: a fixed small
// service set (the scaling axis is requests, not deployments) with arrivals
// spread so in-flight concurrency stays moderate as the trace grows. The
// trace depends only on seed, length and client count — never on the shard
// count.
func replayScaleConfig(seed int64, requests, clients int) workload.Config {
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
		Clients:       clients,
		ZipfS:         1.15,
		FrontLoad:     1.1,
	}
}

// pointSpec describes one scale-trace replay point: which trace to
// generate, which scenario to build, how to replay it, and where its obs
// streams go. The zero value of every field but Seed and Requests is the
// scale-replay default: warm, 20 clients, one Docker site, default
// scheduler and steering, no faults, no mobility, obs off.
type pointSpec struct {
	// SweepVariant carries what a point shares with the public sweep API:
	// seed, trace length (clamped up to the generator's minimum; the result
	// reports the clamped value), λ scale, in-flight cap, request timeout,
	// cold start, the fault plan, the Trace/Counters handles — and, for the
	// single-site testbed only (the region scenario has no such options),
	// scheduler, far edge (Clusters >= 2), deploy retries and probe wait.
	SweepVariant
	// Clients is the client population per site (0 = 20).
	Clients int
	// Shards selects the scenario: 0 is the single-site testbed.Testbed,
	// >= 1 the testbed.Regions scenario on that many kernels (1 = serial).
	Shards int
	// GNBs > 0 builds that many gNB cells per site and replays a handover
	// schedule of mean dwell Dwell alongside the trace.
	GNBs  int
	Dwell time.Duration
	// Backend names the steering backend ("" = the default rule installer).
	Backend string
	// attrib, when set, receives every span the run emits.
	attrib *attrib.Collector
}

// point returns the spec of a default point wired to o's handles.
func (o runOpts) point(seed int64, requests int) pointSpec {
	return pointSpec{
		SweepVariant: SweepVariant{Seed: seed, Requests: requests, Trace: o.trace, Counters: o.counters},
		Backend:      o.steer,
		attrib:       o.attrib,
	}
}

// PointResult is what every replay point reports: the simulated outcome
// summary plus the harness cost of producing it. The typed results
// (ReplayScaleResult, SteerPoint, VariantResult, ...) embed it.
type PointResult struct {
	// Requests is the replayed trace length (after clamping).
	Requests int
	// Errors counts failed requests, Unfinished those incomplete at the run
	// bound, Deployments the services deployed on demand.
	Errors      int
	Unfinished  int
	Deployments int
	// Median / P95 / Mean / Max summarize the client-measured total times;
	// Totals is their full distribution (region-order merge when sharded),
	// ready to Merge.
	Median time.Duration
	P95    time.Duration
	Mean   time.Duration
	Max    time.Duration
	Totals *metrics.Hist
	// PerRegionRequests is the number of completed requests per site.
	PerRegionRequests []int
	// SeriesBytes is the memory retained by the single-site result series:
	// bounded by the histogram threshold, not the trace length.
	SeriesBytes int
	// Wall is the host wall-clock time of the replay (trace generation and
	// scenario build excluded); AllocsPerRequest is heap allocations over
	// the same interval divided by trace length. Both are process-wide
	// measurements, so they mean something only for points run one at a
	// time — the pooled Sweep variants do not report allocations.
	Wall             time.Duration
	AllocsPerRequest float64
	// Spans is the span count emitted when the run was traced (0 untraced);
	// SpanDigest digests the retained spans of a sharded run drained in
	// region order — the trace-byte determinism check.
	Spans      uint64
	SpanDigest uint64
	// Counters is the registry snapshot when counters were attached.
	Counters map[string]float64
}

// pointRun is a finished point: its summary plus the scenario it ran on —
// closed, so nothing of it is pinned once the run is dropped — from which each
// sweep samples what is its own (steering stats, continuity gaps, deployment
// records). The kernel counters are sampled before the close, which ends the
// parked processes LiveProcs counts.
type pointRun struct {
	PointResult
	tb     *testbed.Testbed // Shards == 0
	rs     *testbed.Regions // Shards >= 1
	kernel sim.KernelStats  // of tb
	group  sim.GroupStats   // of rs
}

// sites returns the scenario's sites in region order.
func (r pointRun) sites() []*testbed.Site {
	if r.tb != nil {
		return []*testbed.Site{r.tb.Site}
	}
	return r.rs.Sites
}

// runPoint is the one place a scale-trace replay is generated, built, timed,
// replayed and summarised. Bad names (steering backend, scheduler) and
// replay failures come back as errors.
func runPoint(s pointSpec) (pointRun, error) {
	var run pointRun
	switch s.Backend {
	case "", "openflow", "srv6", "srsteer":
	default: // testbed.NewSteering panics on anything else
		return run, fmt.Errorf("experiments: unknown steering backend %q (want openflow or srv6)", s.Backend)
	}
	var sched core.GlobalScheduler
	if s.Scheduler != "" {
		var err error
		if sched, err = core.NewScheduler(s.Scheduler); err != nil {
			return run, err
		}
	}
	// The generator needs MinPerService (2) requests for each of its 8
	// services.
	requests := s.Requests
	if requests < 8*2 {
		requests = 8 * 2
	}
	clients, sites := s.Clients, 1
	if clients <= 0 {
		clients = 20
	}
	if s.Shards > 0 {
		sites = testbed.DefaultRegions
	}
	cfg := replayScaleConfig(s.Seed, requests, clients*sites)
	if s.LambdaScale > 0 && s.LambdaScale != 1 {
		cfg.Duration = time.Duration(float64(cfg.Duration) / s.LambdaScale)
	}
	trace := workload.Generate(cfg)
	opts := workload.Options{
		PrePull:        !s.Cold,
		PreCreate:      !s.Cold,
		MaxInFlight:    s.MaxInFlight,
		RequestTimeout: s.RequestTimeout,
	}
	if s.GNBs > 0 {
		// Same window and client population as the trace; the schedule seed
		// is offset so it never correlates with the trace's own draws.
		opts.Handovers = workload.GenerateHandovers(workload.MobilityConfig{
			Seed:      trace.Config.Seed + 7,
			Clients:   trace.Config.Clients,
			Cells:     s.GNBs,
			Duration:  trace.Config.Duration,
			MeanDwell: s.Dwell,
			MinDwell:  time.Second,
		})
	}
	if s.Shards == 0 {
		opts.Trace = runOpts{trace: s.Trace, attrib: s.attrib}.attribTracer()
		opts.Counters = s.Counters
		run.tb = testbed.New(testbed.Options{
			Seed:          s.Seed,
			EnableDocker:  true,
			EnableFarEdge: s.Clusters >= 2,
			NumClients:    s.Clients,
			GNBs:          s.GNBs,
			Scheduler:     sched,
			SteerBackend:  s.Backend,
			DeployRetries: s.DeployRetries,
			ProbeMaxWait:  s.ProbeMaxWait,
			Faults:        s.Faults,
			Trace:         opts.Trace,
			Counters:      s.Counters,
		})
	} else {
		run.rs = testbed.NewRegions(testbed.RegionOptions{
			Seed:             s.Seed,
			Shards:           s.Shards,
			ClientsPerRegion: s.Clients,
			GNBs:             s.GNBs,
			SteerBackend:     s.Backend,
			Faults:           s.Faults,
			Traced:           s.Trace != nil || s.attrib != nil,
			Counted:          s.Counters != nil,
		})
	}

	var (
		single        *workload.ReplayResult
		sharded       *workload.ShardReplayResult
		err           error
		before, after runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if run.tb != nil {
		single, err = workload.ReplayWith(run.tb, trace, catalog.Nginx, opts)
	} else {
		sharded, err = workload.ReplaySharded(run.rs, trace, catalog.Nginx, opts)
	}
	run.Wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if run.tb != nil {
		run.kernel = run.tb.K.Stats()
		run.tb.Close()
	} else {
		run.group = run.rs.Group.Stats()
		run.rs.Close()
	}
	if err != nil {
		return run, err
	}
	run.Requests = requests
	run.AllocsPerRequest = float64(after.Mallocs-before.Mallocs) / float64(len(trace.Requests))

	if single != nil {
		t := single.Totals
		// Before the quantiles: they build a sorted copy the series retains.
		run.SeriesBytes = t.RetainedBytes() + single.FirstRequests.RetainedBytes()
		run.Errors, run.Unfinished, run.Deployments = single.Errors, single.Unfinished, single.FirstRequests.Len()
		run.Median, run.P95, run.Mean, run.Max = t.Median(), t.Percentile(95), t.Mean(), t.Max()
		run.Totals = t.ToHist()
		run.PerRegionRequests = []int{t.Len()}
		s.attrib.EndStream()
		run.Spans = s.Trace.Emitted()
	} else {
		t := sharded.Totals
		run.Errors, run.Unfinished, run.Deployments = sharded.Errors, sharded.Unfinished, sharded.Deployments
		run.Median, run.P95, run.Mean, run.Max = t.Median(), t.Percentile(95), t.Mean(), t.Max()
		run.Totals = t
		for _, rres := range sharded.PerRegion {
			run.PerRegionRequests = append(run.PerRegionRequests, rres.Totals.Len())
		}
		run.drainSiteObs(s)
	}
	run.Counters = s.Counters.Map()
	return run, nil
}

// drainSiteObs drains a sharded run's per-site obs deterministically in
// region order: spans into the caller's tracer (and a digest for the
// trace-byte parity check) and the attribution collector, counters and
// gauges folded into the caller's registry. Each site owns its own tracer
// with its own span-ID space, so the collector sees an EndStream boundary
// between sites.
func (r *pointRun) drainSiteObs(o pointSpec) {
	if o.Trace != nil || o.attrib != nil {
		digest := newFNV()
		for _, site := range r.rs.Sites {
			r.Spans += site.Trace.Emitted()
			for _, s := range site.Trace.Spans() {
				digest.str(s.Name)
				digest.str(s.Cat)
				digest.str(s.Detail)
				digest.str(s.Err)
				digest.u64(uint64(s.Start))
				digest.u64(uint64(s.End))
				o.Trace.Emit(s)
				o.attrib.Observe(s)
			}
			o.attrib.EndStream()
		}
		r.SpanDigest = uint64(digest)
	}
	if o.Counters != nil {
		// Counters add up, and gauges carry both their instantaneous value
		// and their high-water mark. Peaks sum across sites (each site's
		// peak was a real concurrent occupancy somewhere in the run), so
		// the caller's "<name>_max" export survives even though every site
		// gauge has drained back to zero by end of run.
		highs := make(map[string]int64)
		for _, site := range r.rs.Sites {
			for _, s := range site.Counters.Snapshot() {
				if s.Kind == "counter" {
					o.Counters.Counter(s.Name).Add(uint64(s.Value))
				}
			}
			site.Counters.EachGauge(func(name string, v, hi int64) {
				o.Counters.Gauge(name).Add(v)
				highs[name] += hi
			})
		}
		for name, hi := range highs {
			o.Counters.Gauge(name).RaiseHigh(hi)
		}
	}
}

// fnv is the package's one fingerprint mixer: FNV-1a steps over the
// little-endian bytes of a uint64 or the bytes of a string. It starts from
// the literal every fingerprint in this package has always started from —
// which is NOT the standard 64-bit FNV offset basis (that one ends in ...037).
// Switching to hash/fnv or "correcting" the constant would re-baseline every
// pinned fingerprint, so it stays.
type fnv uint64

func newFNV() fnv { return 1469598103934665603 }

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

func (h *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= fnv(s[i])
		*h *= 1099511628211
	}
}

// parityGate is the one determinism gate: it fingerprints base, then
// reports whether a rerun at each of the given shard counts reproduced that
// fingerprint bit for bit and — when instrument is non-nil — whether a
// rerun of base with instrument applied (tracing, counters, attribution)
// did too.
func parityGate(fingerprint func(pointSpec) (uint64, error), base pointSpec, shards []int,
	instrument func(*pointSpec)) (serial uint64, shardMatch, instrumentedMatch bool, err error) {
	if serial, err = fingerprint(base); err != nil {
		return 0, false, false, err
	}
	match := func(s pointSpec) (bool, error) {
		fp, err := fingerprint(s)
		return fp == serial, err
	}
	shardMatch, instrumentedMatch = true, true
	for _, n := range shards {
		s := base
		s.Shards = n
		ok, err := match(s)
		if err != nil {
			return 0, false, false, err
		}
		shardMatch = shardMatch && ok
	}
	if instrument != nil {
		s := base
		instrument(&s)
		if instrumentedMatch, err = match(s); err != nil {
			return 0, false, false, err
		}
	}
	return serial, shardMatch, instrumentedMatch, nil
}
