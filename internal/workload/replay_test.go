package workload

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/faults"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
)

func newReplayTestbed(seed int64, clients int) *testbed.Testbed {
	return testbed.New(testbed.Options{Seed: seed, EnableDocker: true, NumClients: clients})
}

// fig9PrepareEnd measures, on a twin of the replay testbed, when the warm
// preparation of the given number of nginx services ends: the same pulls and
// creates in the same order on the same seed, so the same instant.
func fig9PrepareEnd(t *testing.T, seed int64, services int) sim.Time {
	tb := newReplayTestbed(seed, 20)
	var annotated []*spec.Annotated
	for i := 0; i < services; i++ {
		a, _, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			t.Fatal(err)
		}
		annotated = append(annotated, a)
	}
	end := sim.Time(-1)
	tb.K.Go("prepare", func(p *sim.Proc) {
		for _, cl := range tb.Ctrl.Clusters() {
			for _, a := range annotated {
				if err := cl.Pull(p, a); err != nil {
					t.Error(err)
				}
				if err := cl.Create(p, a); err != nil {
					t.Error(err)
				}
			}
		}
		end = p.Now()
	})
	tb.K.RunUntil(time.Hour)
	if end <= 0 {
		t.Fatalf("twin preparation ended at %v", end)
	}
	return end
}

// TestReplayArrivalInstantsFig9 is the arrival lane's oracle on the full
// fig. 9 trace: every one of the 1708 requests starts — its "request" root
// span's Start — exactly at preparation end plus its Request.At, and two
// runs at the same seed produce the same (arrival, total) sample multiset.
// The traced run bounds each request so that one which never completes would
// still close its span (the bound outlasts the arrival window, so a timeout
// cannot disturb another request's start) — and none may: bounded or not,
// 1708 of 1708 complete.
func TestReplayArrivalInstantsFig9(t *testing.T) {
	trace := Generate(DefaultConfig(42))
	t0 := fig9PrepareEnd(t, 42, trace.Config.Services)

	run := func(opts Options) *ReplayResult {
		opts.PrePull, opts.PreCreate = true, true
		res, err := ReplayWith(newReplayTestbed(42, 20), trace, catalog.Nginx, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tr := obs.NewTracer(0)
	bounded := run(Options{Trace: tr, RequestTimeout: 2 * trace.Config.Duration})
	spans := tr.Spans()
	if len(spans) != len(trace.Requests) {
		t.Fatalf("%d request spans for %d requests", len(spans), len(trace.Requests))
	}
	if len(trace.Requests) != 1708 || bounded.Totals.Len() != 1708 || bounded.Errors != 0 || bounded.Unfinished != 0 {
		t.Fatalf("bounded run: %d completed, %d timed out, %d unfinished of %d requests; want 1708 of 1708 completed",
			bounded.Totals.Len(), bounded.Errors, bounded.Unfinished, len(trace.Requests))
	}
	// Spans are emitted in completion order; compare as sorted multisets.
	var got, want []time.Duration
	for _, s := range spans {
		if s.Name != "request" || s.Parent != 0 {
			t.Fatalf("unexpected span %+v", s)
		}
		got = append(got, s.Start)
	}
	for _, r := range trace.Requests {
		want = append(want, t0+r.At)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v (preparation end %v + Request.At)", i, got[i], want[i], t0)
		}
	}

	first, again := run(Options{}), run(Options{})
	if first.Errors != 0 || first.Unfinished != 0 || first.Totals.Len() != len(trace.Requests) {
		t.Fatalf("unbounded run: %d completed, %d errors, %d unfinished; want every request completed",
			first.Totals.Len(), first.Errors, first.Unfinished)
	}
	a, b := sortedSamples(first.Totals), sortedSamples(again.Totals)
	if len(a) != len(b) || first.Unfinished != again.Unfinished {
		t.Fatalf("runs differ: %d samples and %d unfinished vs %d and %d",
			len(a), first.Unfinished, len(b), again.Unfinished)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// The stateless backend serves the same trace in full too.
	tb := testbed.New(testbed.Options{Seed: 42, EnableDocker: true, NumClients: 20, SteerBackend: "srv6"})
	srv6, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true})
	tb.Close()
	if err != nil {
		t.Fatal(err)
	}
	if srv6.Errors != 0 || srv6.Unfinished != 0 || srv6.Totals.Len() != len(trace.Requests) {
		t.Errorf("srv6: %d completed, %d errors, %d unfinished; want every request completed",
			srv6.Totals.Len(), srv6.Errors, srv6.Unfinished)
	}
}

// TestReplayChurnServesEveryRequest replays the shape that made the rule
// pairs of one client expire and be re-installed all through the run — 2000
// clients at the benchmark's flow-churn arrival rate, a 1 s switch idle
// timeout under a 5 s FlowMemory one — and wants every request answered:
// with no request bound, one whose SYN-ACK comes back un-rewritten stays
// Unfinished for ever. The runs are traced and counted, and every packet
// taken from the pool is back in it or counted as dropped once the replay is
// over: recycling connections loses none and frees none twice.
func TestReplayChurnServesEveryRequest(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		trace := Generate(Config{
			Seed: seed, Services: 8, TotalRequests: 20000, MinPerService: 2,
			Duration: 12 * time.Second, Clients: 2000, ZipfS: 1.15, FrontLoad: 1.1,
		})
		reg, tr := obs.NewRegistry(), obs.NewTracer(0)
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true, NumClients: 2000,
			SwitchIdleTimeout: time.Second, MemoryIdleTimeout: 5 * time.Second,
			Counters: reg, Trace: tr,
		})
		res, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true, Trace: tr, Counters: reg})
		tb.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Unfinished != 0 || res.Totals.Len() != len(trace.Requests) {
			t.Errorf("seed %d: %d completed, %d failed, %d unfinished of %d requests", seed,
				res.Totals.Len(), res.Errors, res.Unfinished, len(trace.Requests))
		}
		m := reg.Map()
		gets, puts, drops := m["simnet_packet_pool_gets_total"], m["simnet_packet_pool_puts_total"], m["simnet_packet_drops_total"]
		if gets == 0 || gets != puts+drops {
			t.Errorf("seed %d: packet pool unbalanced: %v gets, %v puts, %v drops", seed, gets, puts, drops)
		}
	}
}

func sortedSamples(s *metrics.Series) []metrics.Sample {
	out := s.Samples()
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// replayRig is one replay entry point over a freshly built scenario, reduced
// to what the tests below compare, so each runs against both ReplayWith (one
// site) and ReplaySharded (replayRigRegions sites on as many kernels).
type replayRig struct {
	name   string
	sites  []*testbed.Site
	replay func(trace *Trace, opts Options) (replayOutcome, error)
}

type replayOutcome struct {
	errors, unfinished, completed, firsts int
	min                                   time.Duration
}

const replayRigRegions = 2

// pullsFail is a fault plan under which no edge cluster can pull an image.
var pullsFail = &faults.Spec{Seed: 1, Default: faults.ClusterSpec{FailFirstPulls: 1 << 30}}

// replayRigs builds the two rigs; fs, when set, is their fault plan.
func replayRigs(seed int64, clients, gnbs int, fs *faults.Spec) []replayRig {
	tb := testbed.New(testbed.Options{Seed: seed, EnableDocker: true, NumClients: clients, GNBs: gnbs, Faults: fs})
	rs := testbed.NewRegions(testbed.RegionOptions{
		Seed: seed, Regions: replayRigRegions, Shards: replayRigRegions, ClientsPerRegion: clients, GNBs: gnbs, Faults: fs,
	})
	return []replayRig{
		{"ReplayWith", []*testbed.Site{tb.Site}, func(trace *Trace, opts Options) (replayOutcome, error) {
			res, err := ReplayWith(tb, trace, catalog.Nginx, opts)
			if err != nil {
				return replayOutcome{}, err
			}
			return replayOutcome{res.Errors, res.Unfinished, res.Totals.Len(), res.FirstRequests.Len(), res.Totals.Percentile(0)}, nil
		}},
		{"ReplaySharded", rs.Sites, func(trace *Trace, opts Options) (replayOutcome, error) {
			res, err := ReplaySharded(rs, trace, catalog.Nginx, opts)
			if err != nil {
				return replayOutcome{}, err
			}
			return replayOutcome{res.Errors, res.Unfinished, res.Totals.Len(), res.Deployments, res.Totals.Percentile(0)}, nil
		}},
	}
}

// expectRejected checks, at both entry points, that a bad input is an error
// returned before anything is registered or staged on any site's kernel.
// sabotage, when set, breaks the freshly built scenario first.
func expectRejected(t *testing.T, name string, gnbs int, trace *Trace, opts Options, sabotage func(rig replayRig)) {
	t.Helper()
	for _, rig := range replayRigs(1, 5, gnbs, nil) {
		if sabotage != nil {
			sabotage(rig)
		}
		var pending []int
		for _, s := range rig.sites {
			pending = append(pending, s.K.Pending())
		}
		if _, err := rig.replay(trace, opts); err == nil {
			t.Errorf("%s, %s: no error", rig.name, name)
		}
		for d, s := range rig.sites {
			if n := len(s.Ctrl.ServiceNames()); n != 0 || s.K.Pending() != pending[d] {
				t.Errorf("%s, %s: site %d has %d services and %d pending events (was %d) after the rejected call",
					rig.name, name, d, n, s.K.Pending(), pending[d])
			}
		}
	}
}

func oneRequestTrace(r Request) *Trace {
	return &Trace{
		Config:   Config{Services: 1, TotalRequests: 1, Duration: time.Second, Clients: 1},
		Requests: []Request{r},
	}
}

func TestReplayGuardNoClients(t *testing.T) {
	expectRejected(t, "no clients", 0, oneRequestTrace(Request{}), Options{},
		func(rig replayRig) { rig.sites[len(rig.sites)-1].Clients = nil })
}

func TestReplayGuardZeroServices(t *testing.T) {
	expectRejected(t, "zero-service trace", 0, &Trace{}, Options{}, nil)
	expectRejected(t, "nil trace", 0, nil, Options{}, nil)
}

func TestReplayGuardOutOfRangeRequests(t *testing.T) {
	expectRejected(t, "service out of range", 0, oneRequestTrace(Request{Service: 5}), Options{}, nil)
	expectRejected(t, "negative client", 0, oneRequestTrace(Request{Client: -1}), Options{}, nil)
}

// TestReplayGuardScheduleOrder: an arrival or handover schedule that runs
// backwards or starts before the replay's anchor is an error naming the
// entry, returned before anything is staged — not a panic from the kernel's
// AtBatch once the run reaches preparation end.
func TestReplayGuardScheduleOrder(t *testing.T) {
	unsorted := &Trace{
		Config:   Config{Services: 1, TotalRequests: 2, Duration: time.Second, Clients: 1},
		Requests: []Request{{At: 2 * time.Second}, {At: time.Second}},
	}
	for _, tc := range []struct {
		name  string
		gnbs  int
		trace *Trace
		opts  Options
		want  string
	}{
		{"requests out of At order", 0, unsorted, Options{}, "request 1 at 1s is before request 0 at 2s"},
		{"negative arrival", 0, oneRequestTrace(Request{At: -time.Hour}), Options{}, "request 0 is at negative offset -1h0m0s"},
		{"handovers out of At order", 2, oneRequestTrace(Request{}),
			Options{Handovers: []Handover{{At: 2 * time.Second, To: 1}, {At: time.Second, To: 1}}},
			"handover 1 at 1s is before handover 0 at 2s"},
		{"negative handover", 2, oneRequestTrace(Request{}),
			Options{Handovers: []Handover{{At: -time.Second, To: 1}}}, "handover 0 is at negative offset -1s"},
	} {
		expectRejected(t, tc.name, tc.gnbs, tc.trace, tc.opts, nil)
		err := validate(replayRigs(1, 5, tc.gnbs, nil)[0].sites, tc.trace, tc.opts.Handovers)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// TestReplayGuardHandovers: a handover the site cannot perform is rejected
// up front instead of panicking inside a kernel event mid-run.
func TestReplayGuardHandovers(t *testing.T) {
	for name, tc := range map[string]struct {
		gnbs int
		h    Handover
	}{
		"negative client":     {2, Handover{Client: -1, To: 1}},
		"negative cell":       {2, Handover{Client: 0, To: -1}},
		"past the last cell":  {2, Handover{Client: 1, To: 2}},
		"site without gNBs":   {0, Handover{At: time.Second, Client: 0, To: 0}},
		"second site's range": {2, Handover{Client: replayRigRegions + 1, To: 2}},
	} {
		expectRejected(t, "handover: "+name, tc.gnbs, oneRequestTrace(Request{}),
			Options{Handovers: []Handover{tc.h}}, nil)
	}
}

// TestReplayShardedRejectsSharedObs: a tracer or registry handed to
// ReplaySharded would be written by concurrent window workers, so it is
// refused with a pointer to the per-site handles, not silently dropped.
func TestReplayShardedRejectsSharedObs(t *testing.T) {
	trace := Generate(Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 4,
		Duration: 10 * time.Second, Clients: 5})
	for name, opts := range map[string]Options{
		"Trace":    {Trace: obs.NewTracer(0)},
		"Counters": {Counters: obs.NewRegistry()},
	} {
		rs := testbed.NewRegions(testbed.RegionOptions{Seed: 1, Regions: 2})
		_, err := ReplaySharded(rs, trace, catalog.Nginx, opts)
		if err == nil || !strings.Contains(err.Error(), "RegionOptions.Traced/Counted") {
			t.Errorf("Options.%s: err = %v, want one naming RegionOptions.Traced/Counted", name, err)
		}
	}
}

// TestReplayErrorAccountingPrepFailure: a failed pre-pull increments Errors
// exactly once per site and aborts that site's preparation; the replay
// itself still proceeds (requests are served by cloud forwarding while edge
// deployment is broken).
func TestReplayErrorAccountingPrepFailure(t *testing.T) {
	cfg := Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 4,
		Duration: 10 * time.Second, Clients: 5}
	trace := Generate(cfg)
	for _, rig := range replayRigs(1, 5, 0, pullsFail) {
		got, err := rig.replay(trace, Options{PrePull: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.errors != len(rig.sites) {
			t.Errorf("%s: Errors = %d, want exactly %d (one failed pre-pull per site)", rig.name, got.errors, len(rig.sites))
		}
		if got.completed != cfg.TotalRequests || got.unfinished != 0 {
			t.Errorf("%s: completed %d, unfinished %d, want %d requests served from the cloud",
				rig.name, got.completed, got.unfinished, cfg.TotalRequests)
		}
	}
}

// TestReplayErrorAccountingRequestFailure: each timed-out request increments
// Errors exactly once, adds no sample, and is not left unfinished.
func TestReplayErrorAccountingRequestFailure(t *testing.T) {
	cfg := Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 4,
		Duration: 10 * time.Second, Clients: 5}
	trace := Generate(cfg)
	for _, rig := range replayRigs(1, 5, 0, nil) {
		got, err := rig.replay(trace, Options{RequestTimeout: time.Microsecond}) // shorter than any RTT
		if err != nil {
			t.Fatal(err)
		}
		if got.errors != cfg.TotalRequests || got.completed != 0 || got.unfinished != 0 {
			t.Errorf("%s: errors %d, completed %d, unfinished %d, want %d/0/0",
				rig.name, got.errors, got.completed, got.unfinished, cfg.TotalRequests)
		}
	}
}

// TestReplayUnfinished: requests still open at the run bound are reported,
// not lost. Edge deployment is broken (no pull succeeds), so every request
// is forwarded to the cloud, where a stand-in origin on the service's VIP
// accepts the connection and never answers; with RequestTimeout 0 the
// clients wait forever.
func TestReplayUnfinished(t *testing.T) {
	cfg := Config{Seed: 1, Services: 1, TotalRequests: 6, MinPerService: 6,
		Duration: 10 * time.Second, Clients: 5}
	trace := Generate(cfg)
	for _, rig := range replayRigs(1, 5, 0, pullsFail) {
		for _, s := range rig.sites {
			// The site's first registration gets VIP 203.<domain>.113.10; a
			// switch route to the stand-in beats the default route to the
			// real origin.
			mute := simnet.NewHost(s.Net, "mute-origin", simnet.Addr(fmt.Sprintf("203.%d.113.10", s.Domain)))
			s.Switch.AttachHost(mute, 50, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: simnet.Gbps})
			mute.ServeHTTPAsync(80, func(*simnet.HTTPServerConn, *simnet.HTTPRequest) {})
		}
		got, err := rig.replay(trace, Options{RequestTimeout: 0})
		if err != nil {
			t.Fatal(err)
		}
		want := replayOutcome{unfinished: cfg.TotalRequests}
		if got != want {
			t.Errorf("%s: outcome %+v, want %+v", rig.name, got, want)
		}
	}
}

func TestReplayHistogramModeAboveThreshold(t *testing.T) {
	cfg := Config{Seed: 3, Services: 2, TotalRequests: DefaultExactSamples + 1, MinPerService: 5,
		Duration: time.Minute, Clients: 20}
	trace := Generate(cfg)
	tb := newReplayTestbed(3, 20)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Samples() != nil {
		t.Fatal("Totals did not fold into histogram mode above the threshold")
	}
	if res.Totals.Len() != cfg.TotalRequests {
		t.Fatalf("Totals.Len = %d, want %d", res.Totals.Len(), cfg.TotalRequests)
	}
	if res.Totals.Median() <= 0 {
		t.Fatalf("Median = %v, want > 0", res.Totals.Median())
	}
}

// TestProcSwitchBudget pins the mechanism behind the deployment path's host
// cost: how often the kernel hands control to a process. On the section-VII
// hybrid (Docker answers first, Kubernetes deploys behind it) with 40 cold
// services a deployment costs about 7.4 process wake-ups beyond what an idle
// testbed's periodic loops spend over the same span: the Kubernetes control
// plane (work queues, reconcilers, scheduler and binds), the kubelet, the
// registry client's pulls, the readiness probe and the bind wait run as kernel
// callbacks, and the wake-ups left are the deployment and dispatch processes
// parking on their phases (12.1 per deployment while the kubelet's watch,
// sync and pod-start loops and the pulls' download workers were processes, 39
// while the control plane's work-queue workers, scheduler loop and binds were
// too). An idle testbed switches to no process at all (3 578 times while the
// kubelet's loops were processes), and the run leaves none parked.
func TestProcSwitchBudget(t *testing.T) {
	const services = 40
	trace := Generate(Config{
		Seed: 42, Services: services, TotalRequests: 4 * services, MinPerService: 2,
		Duration: services * 400 * time.Millisecond,
		Clients:  20, ZipfS: 1.15, FrontLoad: 1.1,
	})
	opts := testbed.Options{
		Seed: 42, EnableDocker: true, EnableKube: true,
		Scheduler: core.DockerFirstScheduler{},
	}
	tb := testbed.New(opts)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors %d, unfinished %d, want a clean replay", res.Errors, res.Unfinished)
	}
	deploys := tb.Ctrl.Stats.Deployments
	if deploys != 2*services {
		t.Fatalf("%d deployments, want %d (each service on Docker and on Kubernetes)", deploys, 2*services)
	}
	idle := testbed.New(opts)
	idle.K.RunUntil(tb.K.Now())

	ks, idleSwitches := tb.K.Stats(), idle.K.Stats().ProcSwitches
	if per := float64(ks.ProcSwitches-idleSwitches) / float64(deploys); per > 8 {
		t.Errorf("%.1f process switches per deployment (%d, %d of them idle loops, over %d deployments), want <= 8",
			per, ks.ProcSwitches, idleSwitches, deploys)
	}
	if ks.LiveProcs != 0 {
		t.Errorf("%d processes still live at the end of the run, want 0", ks.LiveProcs)
	}
}

// TestWarmReplayHopsRideSolo pins why the link model's lone-transfer shortcut
// pays on the paper's steady state (fig. 16: instances running, rules
// installed): on a warm replay shaped like the benchmark's, at least nine
// link crossings in ten meet no other packet on their direction and cost one
// kernel event, not two, and the host stack and switch pipeline stages ride
// those events, so a request costs at most 13 (DESIGN.md §3).
func TestWarmReplayHopsRideSolo(t *testing.T) {
	trace := Generate(Config{
		Seed: 42, Services: 8, TotalRequests: 5000, MinPerService: 2,
		Duration: time.Minute, Clients: 20, ZipfS: 1.15, FrontLoad: 1.1,
	})
	reg := obs.NewRegistry()
	tb := testbed.New(testbed.Options{Seed: 42, EnableDocker: true, Counters: reg})
	defer tb.Close()
	hops := 0
	tb.Net.PktTrace = func(sim.Time, string, *simnet.Packet) { hops++ } // one call per delivery
	before := tb.K.Stats().Events
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true, Counters: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A warm request is five packets over two hops each, plus the server's
	// app delay and the arrival: 12 events when every stage rides its hop.
	if perReq := float64(tb.K.Stats().Events-before) / float64(len(trace.Requests)); perReq > 13 {
		t.Errorf("%.2f kernel events per request, want <= 13 (22.3 while the host stack and switch pipeline stages had events of their own)", perReq)
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors %d, unfinished %d, want a clean replay", res.Errors, res.Unfinished)
	}
	m := reg.Map()
	solo, materialised := m["simnet_solo_transfers_total"], m["simnet_solo_materialised_total"]
	if hops == 0 || solo < 0.9*float64(hops) {
		t.Errorf("%v of %d hops rode solo (%v more were materialised), want >= 90 %%", solo, hops, materialised)
	}
}

// TestReplayShardedStagingMemory: a sharded replay indexes the caller's
// trace in place, 4 B per request, instead of copying its 24-byte requests
// into per-region shares, so staging 100k requests allocates at most 4 B per
// extra request more than staging 10k (plus the rounding of each region's
// index to the allocator's size classes).
func TestReplayShardedStagingMemory(t *testing.T) {
	const regions = 4
	staged := func(n int) uint64 {
		trace := Generate(Config{Seed: 1, Services: 8, TotalRequests: n, MinPerService: 2,
			Duration: time.Minute, Clients: regions * 20})
		rs := testbed.NewRegions(testbed.RegionOptions{Seed: 1, Regions: regions})
		defer rs.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs, err := stageSharded(rs, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		staged := 0
		for _, r := range runs {
			staged += r.requests()
		}
		if staged != n {
			t.Fatalf("staged %d requests across %d regions, want %d", staged, regions, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := staged(10_000), staged(100_000)
	t.Logf("staging allocated %d B for 10k requests, %d B for 100k", small, large)
	if limit := small + 4*90_000 + regions*8<<10; large > limit {
		t.Fatalf("staging allocated %d B for 10k requests and %d B for 100k: %.1f B per extra request, want <= 4 (limit %d B)",
			small, large, float64(large-small)/90_000, limit)
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it has stopped moving:
// a shard window worker reports that it is exiting a moment before its
// goroutine is gone, and nothing else can be waited on for that.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// TestCloseLeavesNoGoroutine: a replay on the Kubernetes testbed leaves no
// process parked and no goroutine beyond the baseline, since the model's
// control loops, the kubelet's included, run on kernel callbacks; Close ends
// the sharded scenario's parked processes. Without Close a sweep kept every
// testbed it had built reachable from such goroutines.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	base := settledGoroutines()
	trace := Generate(Config{
		Seed: 42, Services: 4, TotalRequests: 16, MinPerService: 2,
		Duration: 2 * time.Second, Clients: 20, ZipfS: 1.15, FrontLoad: 1.1,
	})
	tb := testbed.New(testbed.Options{
		Seed: 42, EnableDocker: true, EnableKube: true, Scheduler: core.DockerFirstScheduler{},
	})
	if _, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true}); err != nil {
		t.Fatal(err)
	}
	if n, live := runtime.NumGoroutine(), tb.K.Stats().LiveProcs; n != base || live != 0 {
		t.Fatalf("%d goroutines and %d live processes after the replay, baseline %d: want no process left parked", n, live, base)
	}
	tb.Close()

	rs := testbed.NewRegions(testbed.RegionOptions{Seed: 42, Regions: 2, Shards: 2})
	if _, err := ReplaySharded(rs, trace, catalog.Nginx, Options{PrePull: true, PreCreate: true}); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if n := settledGoroutines(); n != base {
		t.Fatalf("%d goroutines after Regions.Close, baseline %d", n, base)
	}
}
