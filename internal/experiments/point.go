package experiments

import (
	"fmt"
	"runtime"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/faults"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
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
// streams go. Every field but Seed and Requests is zero at the scale-replay
// default: warm, 20 clients, one Docker site, default scheduler and
// steering, no faults, no mobility, obs off. A sweep variant is a point
// too, one of many run on a worker pool.
type pointSpec struct {
	// Name labels the point in sweep results.
	Name string
	// Seed drives both trace generation and testbed randomness.
	Seed int64
	// Requests is the synthetic trace length, clamped up to the generator's
	// minimum; the result reports the clamped value.
	Requests int
	// Scheduler is a core scheduler name ("wait-nearest", "no-wait",
	// "proximity", "docker-first"; "" = testbed default). "no-wait" vs the
	// default is the paper's with/without-waiting axis. Like Clusters,
	// DeployRetries and ProbeMaxWait it applies to the single-site testbed
	// only: the region scenario has no such options.
	Scheduler string
	// Clusters selects the edge topology: 1 = the Docker edge cluster only
	// (default), 2 = add the far-edge Docker cluster (fig. 3 scenario).
	Clusters int
	// Cold skips image pre-pull and instance pre-create, so the point
	// measures on-demand deployment costs too.
	Cold bool
	// DeployRetries / ProbeMaxWait configure the controller's fault
	// hardening (0 = testbed defaults); RequestTimeout bounds each replayed
	// request (0 = wait forever). Timed-out requests count as errors.
	DeployRetries  int
	ProbeMaxWait   time.Duration
	RequestTimeout time.Duration
	// Faults, when non-nil and enabled, is the deterministic fault plan.
	// Nil is the fault-free zero-cost path: the outputs are bit-identical
	// to a build without fault injection at all.
	Faults *faults.Spec
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
	// Trace, Counters and attrib are the point's obs sinks (nil = off at
	// zero cost, with outputs bit-identical to an uninstrumented run).
	// Points run in parallel need their own: the types are
	// concurrency-safe, but one tracer ring shared across points would
	// interleave spans in completion order.
	Trace    *obs.Tracer
	Counters *obs.Registry
	attrib   *attrib.Collector
}

// pointResult is what every replay point reports: the simulated outcome
// summary plus the harness cost of producing it. The typed results
// (replayScaleResult, steerPoint, variantResult, ...) embed it.
type pointResult struct {
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
	// time — the pooled sweep variants do not report allocations.
	Wall             time.Duration
	AllocsPerRequest float64
	// Spans is the span count emitted when the run was traced (0 untraced).
	Spans uint64
	// Counters is the registry snapshot when counters were attached.
	Counters map[string]float64
}

// pointRun is a finished point: its summary plus the scenario it ran on —
// closed, so nothing of it is pinned once the run is dropped — from which each
// sweep samples what is its own (steering stats, continuity gaps, deployment
// records). The kernel counters are sampled before the close, which ends the
// parked processes LiveProcs counts.
type pointRun struct {
	pointResult
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
	trace := workload.Generate(replayScaleConfig(s.Seed, requests, clients*sites))
	opts := workload.Options{
		PrePull:        !s.Cold,
		PreCreate:      !s.Cold,
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
		opts.Trace = attribTracer(s.Trace, s.attrib)
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
		if s.Trace != nil || s.attrib != nil {
			tracers := make([]*obs.Tracer, len(run.rs.Sites))
			for i, site := range run.rs.Sites {
				tracers[i] = site.Trace
				run.Spans += site.Trace.Emitted()
			}
			drain(s.Trace, s.attrib, tracers)
		}
		if s.Counters != nil {
			foldSiteCounters(s.Counters, run.rs.Sites)
		}
	}
	run.Counters = s.Counters.Map()
	return run, nil
}

// attribTracer returns the tracer a single-kernel run wires into its
// testbed and workload: tr itself when no attribution is requested,
// otherwise a minimal internal tracer whose sink streams every span into
// col and forwards it (IDs intact) to tr, if any. Span IDs are assigned by
// the internal tracer exactly as they would have been by tr — emission
// order is unchanged, so traced output stays byte-identical.
func attribTracer(tr *obs.Tracer, col *attrib.Collector) *obs.Tracer {
	if col == nil {
		return tr
	}
	in := obs.NewTracer(1)
	in.SetSink(func(s obs.Span) {
		col.Observe(s)
		tr.Emit(s)
	})
	return in
}

// drain streams the retained spans of private tracers — a sharded run's
// sites', a sweep's variants' — in order into the shared tracer and the
// attribution collector, so both are deterministic whatever ran in
// parallel. Each private tracer has its own span-ID space, so the collector
// sees an EndStream boundary after each.
func drain(into *obs.Tracer, col *attrib.Collector, from []*obs.Tracer) {
	for _, tr := range from {
		for _, s := range tr.Spans() {
			into.Emit(s)
			col.Observe(s)
		}
		col.EndStream()
	}
}

// foldSiteCounters registers in the caller's registry the sums of the
// sites' series. Counters add up, and so do gauges and
// their high-water marks: each site's peak was a real concurrent occupancy
// somewhere in the run, so the caller's "<name>_max" export survives even
// though every site gauge has drained back to zero by end of run. The sums
// are taken now, so the registry keeps no site alive.
func foldSiteCounters(into *obs.Registry, sites []*testbed.Site) {
	var sums []obs.Sample
	at := make(map[string]int)
	for _, site := range sites {
		for _, s := range site.Counters.Snapshot() {
			if i, ok := at[s.Name]; ok {
				sums[i].Value += s.Value
				continue
			}
			at[s.Name] = len(sums)
			sums = append(sums, s)
		}
	}
	into.Register(func(add func(obs.Sample)) {
		for _, s := range sums {
			add(s)
		}
	})
}

// fnv is the package's one fingerprint mixer: FNV-1a steps over the
// little-endian bytes of a uint64. It starts from
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
