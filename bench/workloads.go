package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/sim"
	"transparentedge/internal/steer"
	"transparentedge/internal/testbed"
	wl "transparentedge/internal/workload"
)

// workloadDef is one benchmark workload: a trace shape and the testbed it is
// replayed against, built through the packages' public constructors only.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Trace returns the generator config at a scale (1 = the sizes the
	// baseline is recorded at).
	Trace func(seed int64, scale float64) wl.Config
	// Testbed returns the single-kernel testbed options; nil selects the
	// sharded multi-region scenario (testbed.NewRegions).
	Testbed func(seed int64) testbed.Options
	Replay  wl.Options
	// DeploysPerService is how many deployments each trace service causes:
	// clusters per site times sites. The correctness gate multiplies it by
	// the trace's service count.
	DeploysPerService int
}

func (w *workloadDef) sharded() bool { return w.Testbed == nil }

// scaled shrinks a count, never below floor.
func scaled(n int, scale float64, floor int) int {
	if v := int(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

// replayTrace is the experiments.ReplayScale trace shape: eight services (the
// scaling axis is requests, not deployments) with arrivals spread so
// in-flight concurrency stays moderate as the trace grows.
func replayTrace(seed int64, requests, clients int) wl.Config {
	dur := time.Duration(requests) * 300 * time.Microsecond
	if dur < time.Minute {
		dur = time.Minute
	}
	return wl.Config{
		Seed: seed, Services: 8, TotalRequests: requests, MinPerService: 2,
		Duration: dur, Clients: clients, ZipfS: 1.15, FrontLoad: 1.1,
	}
}

var warmReplay = wl.Options{PrePull: true, PreCreate: true}

// workloads lists the benchmark's workloads in run order. Each likely
// optimisation has one workload where its layer does most of the work and
// one where it does little; see README.md for the full reasoning.
var workloads = []*workloadDef{
	{
		Name: "warm-replay",
		Why:  "data path: 0.017 packet-ins/request, so kernel, simnet and switch lookup do nearly all the work and the controller and clusters almost none",
		Trace: func(seed int64, scale float64) wl.Config {
			return replayTrace(seed, scaled(500_000, scale, 16), 20)
		},
		Testbed: func(seed int64) testbed.Options {
			return testbed.Options{Seed: seed, EnableDocker: true}
		},
		Replay:            warmReplay,
		DeploysPerService: 1,
	},
	{
		Name: "flow-churn",
		Why:  "control path: 2000 clients with short idle timeouts, so every dispatch outcome, FlowMemory put/evict and flow-table insert/expiry is exercised on the write side",
		Trace: func(seed int64, scale float64) wl.Config {
			cfg := replayTrace(seed, scaled(100_000, scale, 16), 2000)
			// Timeouts below are sized against this fixed window so every
			// (client, service) pair sees a switch hit, a FlowMemory hit and
			// a full dispatch.
			cfg.Duration = 60 * time.Second
			return cfg
		},
		Testbed: func(seed int64) testbed.Options {
			return testbed.Options{
				Seed: seed, EnableDocker: true, NumClients: 2000,
				SwitchIdleTimeout: time.Second, MemoryIdleTimeout: 5 * time.Second,
			}
		},
		Replay:            warmReplay,
		DeploysPerService: 1,
	},
	{
		Name: "cold-hybrid",
		Why:  "deployment path: 800 services on the section-VII hybrid, Docker answers first while Kubernetes deploys behind it, so the cluster models and goroutine-backed procs do the work",
		Trace: func(seed int64, scale float64) wl.Config {
			services := scaled(800, scale, 8)
			return wl.Config{
				Seed: seed, Services: services, TotalRequests: 4 * services, MinPerService: 2,
				Duration: time.Duration(services) * 400 * time.Millisecond,
				Clients:  20, ZipfS: 1.15, FrontLoad: 1.1,
			}
		},
		Testbed: func(seed int64) testbed.Options {
			return testbed.Options{
				Seed: seed, EnableDocker: true, EnableKube: true,
				Scheduler: core.DockerFirstScheduler{},
			}
		},
		// Pre-pulled because the model has no in-flight pull de-duplication:
		// concurrent cold pulls of one image time out and every deployment
		// fails, which would benchmark the failure path.
		Replay:            wl.Options{PrePull: true},
		DeploysPerService: 2,
	},
	{
		Name: "regions-sharded",
		Why:  "second pipeline and the only parallel one: warm-replay's traffic over 8 regions on min(8, GOMAXPROCS) kernels, so shard windows, fabric and barrier stalls show",
		Trace: func(seed int64, scale float64) wl.Config {
			return replayTrace(seed, scaled(300_000, scale, 16), testbed.DefaultRegions*20)
		},
		Replay:            warmReplay,
		DeploysPerService: testbed.DefaultRegions,
	},
}

// structureSeed is the seed whose trace fixes every workload's macroscopic
// shape: when each service's conversation starts.
const structureSeed = 42

// generate returns the workload's trace for a seed.
//
// With only eight services, when the popular ones' conversations start decides
// the peak arrival rate, and with it the host cost: across ten seeds of plain
// workload.Generate a warm-replay rep took 3.5 s to 13 s and 120 to 306 MiB.
// That is a different workload per seed, not noise, and no regression bound
// survives it. So the starts are part of the workload definition — they are
// workload.Generate's at structureSeed — and the seed redraws everything else:
// each request's place within its conversation and its client. The trace is
// generated at the seed, and each service's conversation is then moved, scaled
// to the window left after it, onto that service's canonical start. At
// structureSeed the result is workload.Generate's trace unchanged.
func generate(w *workloadDef, seed int64, scale float64) *wl.Trace {
	canon := wl.Generate(w.Trace(structureSeed, scale))
	if seed == structureSeed {
		return canon
	}
	tr := wl.Generate(w.Trace(seed, scale))
	// Requests are sorted by arrival, so a service's first is its start.
	starts := func(t *wl.Trace) []time.Duration {
		out := make([]time.Duration, t.Config.Services)
		seen := make([]bool, t.Config.Services)
		for _, r := range t.Requests {
			if !seen[r.Service] {
				seen[r.Service], out[r.Service] = true, r.At
			}
		}
		return out
	}
	from, to, end := starts(tr), starts(canon), tr.Config.Duration
	for i := range tr.Requests {
		r := &tr.Requests[i]
		f, t := from[r.Service], to[r.Service]
		r.At = t + time.Duration(float64(r.At-f)/float64(end-f)*float64(end-t))
	}
	sort.Slice(tr.Requests, func(i, j int) bool { // workload.Generate's order
		a, b := tr.Requests[i], tr.Requests[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		return a.Client < b.Client
	})
	return tr
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// defaultShards is the kernel count the sharded workload runs on.
func defaultShards() int {
	if n := runtime.GOMAXPROCS(0); n < 8 {
		return n
	}
	return 8
}

// repResult is everything one replay produced: the host cost of the replay
// call and the simulated outputs, which repeat exactly for a seed.
type repResult struct {
	BuildMS   float64 `json:"build_ms"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Mallocs   uint64  `json:"mallocs"`
	Bytes     uint64  `json:"alloc_bytes"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	// PeakRSSMiB is the resident-set high-water mark of this rep alone,
	// testbed and trace included.
	PeakRSSMiB float64 `json:"peak_rss_mb"`

	Requests    int           `json:"requests"`
	Completed   int           `json:"completed"`
	Errors      int           `json:"errors"`
	Deployments int           `json:"deployments"`
	TotalP50    time.Duration `json:"sim_total_p50_ns"`
	TotalP99    time.Duration `json:"sim_total_p99_ns"`
	FirstP50    time.Duration `json:"sim_first_p50_ns"`
	Fingerprint string        `json:"fingerprint"`
	Shards      int           `json:"shards"`

	Kernel        sim.KernelStats  `json:"-"`
	Group         *sim.GroupStats  `json:"-"`
	Ctrl          core.Stats       `json:"-"`
	Steer         steer.TableStats `json:"-"`
	RuleHighWater int              `json:"-"`

	// Traced reps only.
	Counters map[string]float64              `json:"-"`
	Excl     [attrib.NumPhases]*metrics.Hist `json:"-"`
	Spans    uint64                          `json:"-"`
	Dropped  uint64                          `json:"-"`
	Lost     []int                           `json:"-"`
	Profile  []byte                          `json:"-"`
}

// failed counts requests that errored or never completed. ReplayResult.Errors
// alone misses the second kind, so it is derived from the completed count.
func (r *repResult) failed() int { return r.Requests - r.Completed }

// measured runs fn and fills in the host cost of that call alone. The forced
// GC first makes the allocation deltas the call's own, as
// experiments.ReplayScale does. With profile set the call is CPU-profiled.
func (r *repResult) measured(profile bool, fn func() error) error {
	var before, after runtime.MemStats
	var prof bytes.Buffer
	runtime.GC()
	runtime.ReadMemStats(&before)
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	cpu0, start := cpuSeconds(), time.Now()
	err := fn()
	r.WallS = time.Since(start).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	if profile {
		pprof.StopCPUProfile()
		r.Profile = prof.Bytes()
	}
	runtime.ReadMemStats(&after)
	r.Mallocs = after.Mallocs - before.Mallocs
	r.Bytes = after.TotalAlloc - before.TotalAlloc
	r.GCCycles = after.NumGC - before.NumGC
	r.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return err
}

// fnv folds values into an FNV-1a digest, the repo's fingerprint idiom.
type fnv uint64

func newFNV() fnv { return 1469598103934665603 }

func (h *fnv) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

// runRep builds a fresh testbed and replays trace on it once. traced attaches
// the tracer, the counter registry, the attribution collector and a CPU
// profile; timed reps run with none of them. shards is ignored by
// single-kernel workloads.
func runRep(w *workloadDef, trace *wl.Trace, seed int64, shards int, traced bool, log *spanLog, label string) (*repResult, error) {
	end := log.beginRep(label, w.Name)
	defer end()
	r := &repResult{Requests: len(trace.Requests), Shards: 1}
	resetPeakRSS()
	var err error
	if w.sharded() {
		err = r.runSharded(w, trace, seed, shards, traced, log)
	} else {
		err = r.runSerial(w, trace, seed, traced, log)
	}
	r.PeakRSSMiB = peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r, nil
}

func (r *repResult) runSerial(w *workloadDef, trace *wl.Trace, seed int64, traced bool, log *spanLog) error {
	opts, ro := w.Testbed(seed), w.Replay
	var col *attrib.Collector
	var starts []time.Duration
	if traced {
		col = attrib.New(attrib.Options{})
		// A one-slot ring: every span leaves through the sink.
		opts.Trace, opts.Counters = obs.NewTracer(1), obs.NewRegistry()
		opts.Trace.SetSink(func(s obs.Span) {
			col.Observe(s)
			if s.Name == "request" && s.Parent == 0 {
				starts = append(starts, s.Start)
			}
		})
		ro.Trace, ro.Counters = opts.Trace, opts.Counters
	}

	var tb *testbed.Testbed
	r.BuildMS = ms(log.span("testbed.New", "testbed", func() { tb = testbed.New(opts) }))

	var res *wl.ReplayResult
	var err error
	log.span("workload.ReplayWith", "workload", func() {
		err = r.measured(traced, func() (err error) {
			res, err = wl.ReplayWith(tb, trace, catalog.Nginx, ro)
			return err
		})
	})
	if err != nil {
		return err
	}

	log.span("extract", "bench", func() {
		r.Completed = res.Totals.Len()
		r.Errors = res.Errors
		r.Deployments = int(tb.Ctrl.Stats.Deployments)
		r.TotalP50 = res.Totals.Median()
		r.TotalP99 = res.Totals.Percentile(99)
		r.FirstP50 = res.FirstRequests.Median()
		r.Kernel = tb.K.Stats()
		r.Ctrl = tb.Ctrl.Stats
		r.Steer = tb.Ctrl.SteerStats()
		r.RuleHighWater = tb.Switch.RuleHighWater
		h := newFNV()
		h.mix(uint64(res.FirstRequests.Len()))
		h.mix(res.Totals.ToHist().Fingerprint())
		r.fingerprint(&h)
		if traced {
			col.EndStream()
			rep := col.Report()
			r.Counters, r.Spans = opts.Counters.Map(), opts.Trace.Emitted()
			r.Excl, r.Dropped = rep.Excl, rep.DroppedSpans
			if r.failed() > 0 {
				r.Lost = lostRequests(trace, starts, 10)
			}
		}
	})
	return nil
}

func (r *repResult) runSharded(w *workloadDef, trace *wl.Trace, seed int64, shards int, traced bool, log *spanLog) error {
	var rs *testbed.Regions
	r.BuildMS = ms(log.span("testbed.NewRegions", "testbed", func() {
		rs = testbed.NewRegions(testbed.RegionOptions{Seed: seed, Shards: shards, Traced: traced, Counted: traced})
	}))
	r.Shards = rs.Group.Shards()

	// Window workers run sites concurrently, so each site streams into its
	// own collector; they are merged in region order afterwards.
	var cols []*attrib.Collector
	if traced {
		rs.Group.EnableWallStats()
		for _, site := range rs.Sites {
			col := attrib.New(attrib.Options{})
			site.Trace.SetSink(col.Observe)
			cols = append(cols, col)
		}
	}

	var res *wl.ShardReplayResult
	var err error
	log.span("workload.ReplaySharded", "workload", func() {
		err = r.measured(traced, func() (err error) {
			res, err = wl.ReplaySharded(rs, trace, catalog.Nginx, w.Replay)
			return err
		})
	})
	if err != nil {
		return err
	}

	log.span("extract", "bench", func() {
		r.Completed = res.Totals.Len()
		r.Errors = res.Errors
		r.TotalP50 = res.Totals.Median()
		r.TotalP99 = res.Totals.Percentile(99)
		first := metrics.NewSeries("first")
		h := newFNV()
		for _, rr := range res.PerRegion {
			h.mix(uint64(rr.Totals.Len()))
			for _, s := range rr.FirstRequests.Samples() {
				first.Add(s.At, s.Value)
			}
		}
		r.FirstP50 = first.Median()
		h.mix(uint64(first.Len()))
		h.mix(res.Totals.Fingerprint())

		gs := rs.Group.Stats()
		r.Group = &gs
		for _, sh := range gs.Shards {
			ks := sh.Kernel
			r.Kernel.Events += ks.Events
			r.Kernel.Scheduled += ks.Scheduled
			r.Kernel.Pending += ks.Pending
			r.Kernel.WheelCascades += ks.WheelCascades
			r.Kernel.WheelPromotions += ks.WheelPromotions
			r.Kernel.NearHighWater = max(r.Kernel.NearHighWater, ks.NearHighWater)
			r.Kernel.LanesHighWater = max(r.Kernel.LanesHighWater, ks.LanesHighWater)
		}
		if traced {
			r.Counters = map[string]float64{}
		}
		for i, site := range rs.Sites {
			st := site.Ctrl.Stats
			r.Deployments += int(st.Deployments)
			r.Ctrl.PacketIns += st.PacketIns
			r.Ctrl.MemoryServed += st.MemoryServed
			r.Ctrl.CloudForwards += st.CloudForwards
			r.Ctrl.Deployments += st.Deployments
			r.Ctrl.Redirections += st.Redirections
			r.Ctrl.DeployFailures += st.DeployFailures
			ss := site.Ctrl.SteerStats()
			r.Steer.FlowMods += ss.FlowMods
			r.Steer.EntriesHighWater += ss.EntriesHighWater
			r.RuleHighWater += site.Switch.RuleHighWater
			if !traced {
				continue
			}
			// Peaks sum across sites: each was a real occupancy somewhere.
			for name, v := range site.Counters.Map() {
				r.Counters[name] += v
			}
			r.Spans += site.Trace.Emitted()
			cols[i].EndStream()
			rep := cols[i].Report()
			r.Dropped += rep.DroppedSpans
			for p, hist := range rep.Excl {
				if r.Excl[p] == nil {
					r.Excl[p] = hist.Clone()
				} else if merr := r.Excl[p].Merge(hist); merr != nil && err == nil {
					err = merr
				}
			}
		}
		r.fingerprint(&h)
	})
	return err
}

// fingerprint finishes the digest of every simulated output a rep reports.
// Shard count and host costs are excluded: reps of one seed must agree at any
// shard count, traced or not.
func (r *repResult) fingerprint(h *fnv) {
	for _, v := range []uint64{
		uint64(r.Requests), uint64(r.Completed), uint64(r.Errors), uint64(r.Deployments),
		uint64(r.TotalP50), uint64(r.TotalP99), uint64(r.FirstP50),
	} {
		h.mix(v)
	}
	r.Fingerprint = fmt.Sprintf("%016x", uint64(*h))
}

// lostRequests returns up to limit trace indices of requests that never
// produced a "request" root span, i.e. never completed. Every started request
// runs at t0 + At for one replay-wide anchor t0 the replay does not expose;
// the first completed arrival pins it to t0 = firstStart - At[j] for some
// small j (j > 0 only if the trace's first j requests are themselves lost),
// and the right j is the one under which every span start is an arrival.
func lostRequests(trace *wl.Trace, starts []time.Duration, limit int) []int {
	if len(starts) == 0 {
		return nil
	}
	first := starts[0]
	for _, s := range starts {
		first = min(first, s)
	}
	for j := 0; j < len(trace.Requests) && j <= len(trace.Requests)-len(starts); j++ {
		t0 := first - trace.Requests[j].At
		due := make(map[time.Duration]int, len(trace.Requests))
		for _, rq := range trace.Requests {
			due[t0+rq.At]++
		}
		ok := true
		for _, s := range starts {
			if due[s] == 0 {
				ok = false
				break
			}
			due[s]--
		}
		if !ok {
			continue
		}
		var lost []int
		for i, rq := range trace.Requests {
			if len(lost) == limit {
				break
			}
			if at := t0 + rq.At; due[at] > 0 {
				due[at]--
				lost = append(lost, i)
			}
		}
		return lost
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
