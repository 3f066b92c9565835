package workload

import (
	"fmt"
	"math"
	"time"

	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
)

// DefaultExactSamples is the per-series sample count above which Replay
// switches the totals series to fixed-memory histogram mode. Below it,
// every sample is retained and quantiles are exact — the paper-scale trace
// (1708 requests) stays far under this, so its results are bit-identical to
// the unbounded series.
const DefaultExactSamples = 65536

// ReplayResult aggregates one trace replay.
type ReplayResult struct {
	// Totals holds every request's client-measured total time (timecurl's
	// time_total), stamped at the request's arrival time. Above the exact
	// sample threshold it degrades to a log-bucketed histogram (see
	// Options.ExactSamples).
	Totals *metrics.Series
	// FirstRequests holds only each service's first request (the
	// on-demand deployment requests of figs. 11/12).
	FirstRequests *metrics.Series
	// Errors counts failed requests.
	Errors int
	// Unfinished counts requests that had not completed when the run bound
	// was reached — in flight, queued behind MaxInFlight, or not yet arrived.
	// They are neither sampled nor counted in Errors.
	Unfinished int
	// Registrations are the per-service registrations used.
	Registrations []spec.Registration
}

// Options configures a replay run beyond the trace itself.
type Options struct {
	// PrePull / PreCreate run the fig. 11 warm conditions before t=0.
	PrePull   bool
	PreCreate bool
	// MaxInFlight bounds concurrently executing requests (0 = unlimited).
	// Arrivals beyond the cap queue FIFO and start as running requests
	// finish; their measured latency still spans arrival to completion, so
	// queueing shows up in the totals. In a sharded replay the cap applies
	// per site.
	MaxInFlight int
	// ExactSamples is the per-series sample threshold beyond which result
	// series fold into fixed-memory histograms. 0 means
	// DefaultExactSamples; negative means never fold (retain every sample).
	ExactSamples int
	// RequestTimeout bounds each request (0 = wait forever, the paper's
	// on-demand-with-waiting behavior). Timed-out requests count as errors.
	RequestTimeout time.Duration
	// Trace, when set, emits one "request" root span per replayed request
	// (arrival to completion, Err on failure) — so a replay's span count for
	// that name equals the request count. Nil = off at zero cost.
	Trace *obs.Tracer
	// Counters, when set, registers replay_inflight (gauge, with high-water
	// mark) and replay_errors_total. Nil = off at zero cost. ReplaySharded
	// rejects both handles: window workers run sites concurrently, so a
	// sharded run instruments through the per-site handles of
	// testbed.RegionOptions.Traced / Counted.
	Counters *obs.Registry
	// Handovers is a mobility schedule replayed alongside the trace: each
	// event fires at the replay anchor plus its At, on its own monotone
	// event lane (it never perturbs the arrival lane), and moves the client
	// with testbed.Site.Handover on the client's home site.
	Handovers []Handover
}

// replayObs bundles one site's resolved obs handles; the zero value (obs
// off) no-ops everywhere, so the engine instruments unconditionally.
type replayObs struct {
	tr   *obs.Tracer
	in   *obs.Gauge
	errs *obs.Counter
}

func newReplayObs(tr *obs.Tracer, reg *obs.Registry) replayObs {
	o := replayObs{tr: tr}
	if reg != nil {
		o.in = reg.Gauge("replay_inflight")
		o.errs = reg.Counter("replay_errors_total")
	}
	return o
}

// request emits the per-request root span and accounting around one
// replayed request's execution.
func (o replayObs) request(at, end sim.Time, serviceKey string, err error) {
	if err != nil {
		o.errs.Inc()
	}
	if o.tr == nil {
		return
	}
	s := obs.Span{Name: "request", Cat: "request", Detail: serviceKey,
		Start: time.Duration(at), End: time.Duration(end)}
	if err != nil {
		s.Err = err.Error()
	}
	o.tr.Emit(s)
}

// runBound is how long a replay runs: the trace duration plus generous slack
// for trailing deployments. Whatever has not completed by then is reported
// as ReplayResult.Unfinished.
func runBound(trace *Trace) time.Duration { return trace.Config.Duration + 30*time.Minute }

// Replay registers trace.Config.Services instances of the given Table I
// service type (the paper uses "a single service type per test run"),
// optionally pre-pulls and pre-creates them (the fig. 11 warm conditions),
// then replays the trace: every request is issued from its client at its
// arrival time and measured end to end. It is shorthand for ReplayWith with
// the default options.
func Replay(tb *testbed.Testbed, trace *Trace, serviceKey string, prePull, preCreate bool) (*ReplayResult, error) {
	return ReplayWith(tb, trace, serviceKey, Options{PrePull: prePull, PreCreate: preCreate})
}

// ReplayWith replays a trace against the single-site testbed with explicit
// options: the one replay engine (siteReplay) on the testbed's site, with
// request client c issued from client c % len(tb.Clients). The testbed
// kernel is run to the run bound inside the call.
func ReplayWith(tb *testbed.Testbed, trace *Trace, serviceKey string, opts Options) (*ReplayResult, error) {
	if err := validate([]*testbed.Site{tb.Site}, trace, opts.Handovers); err != nil {
		return nil, err
	}
	run, err := stage(tb.Site, serviceKey, serviceKey, trace, nil, 1, opts)
	if err != nil {
		return nil, err
	}
	tb.K.RunUntil(runBound(trace))
	return run.finish(), nil
}

// validate rejects a replay's inputs before anything is registered or
// staged, so bad input never surfaces as a panic inside a kernel event.
// Client c of the trace and of the handover schedule lives on
// sites[c % len(sites)]; across several sites each site indexes its share
// of the trace with int32s.
func validate(sites []*testbed.Site, trace *Trace, handovers []Handover) error {
	if trace == nil || trace.Config.Services <= 0 {
		return fmt.Errorf("workload: trace has no services")
	}
	if len(sites) > 1 && len(trace.Requests) > math.MaxInt32 {
		return fmt.Errorf("workload: a trace of %d requests is longer than a sharded replay indexes (%d)",
			len(trace.Requests), math.MaxInt32)
	}
	for d, s := range sites {
		if len(s.Clients) == 0 {
			return fmt.Errorf("workload: site %d has no clients", d)
		}
	}
	for i, r := range trace.Requests {
		if r.Service < 0 || r.Service >= trace.Config.Services {
			return fmt.Errorf("workload: request %d references service %d outside [0,%d)",
				i, r.Service, trace.Config.Services)
		}
		if r.Client < 0 {
			return fmt.Errorf("workload: request %d has negative client %d", i, r.Client)
		}
		if err := inOrder("request", i, trace.Requests[max(i-1, 0)].At, r.At); err != nil {
			return err
		}
	}
	for i, h := range handovers {
		if h.Client < 0 {
			return fmt.Errorf("workload: handover %d has negative client %d", i, h.Client)
		}
		if err := inOrder("handover", i, handovers[max(i-1, 0)].At, h.At); err != nil {
			return err
		}
		cells := len(sites[h.Client%len(sites)].GNBs)
		if cells == 0 {
			return fmt.Errorf("workload: handover %d moves client %d, whose site was built without gNB cells (GNBs == 0)",
				i, h.Client)
		}
		if h.To < 0 || h.To >= cells {
			return fmt.Errorf("workload: handover %d moves client %d to cell %d outside [0,%d)",
				i, h.Client, h.To, cells)
		}
	}
	return nil
}

// inOrder checks entry i of a schedule that stage hands the kernel as one
// AtBatch lane: its offset at must not be negative (before the lane's
// anchor) nor before prev, the offset of entry i-1.
func inOrder(kind string, i int, prev, at time.Duration) error {
	if at < 0 {
		return fmt.Errorf("workload: %s %d is at negative offset %v", kind, i, at)
	}
	if at < prev {
		return fmt.Errorf("workload: %s %d at %v is before %s %d at %v; the schedule must be sorted by At",
			kind, i, at, kind, i-1, prev)
	}
	return nil
}

// siteReplay is the replay engine: one site's share of a replay, staged on
// that site's kernel and driven entirely by kernel events and callback I/O —
// no process, channel or promise per request, and in-flight records recycled
// — so peak memory tracks in-flight requests and a steady-state request
// allocates nothing. All of its state is touched from the site's kernel only.
type siteReplay struct {
	site       *testbed.Site
	serviceKey string
	// trace is the caller's, read in place. The site's request i is
	// trace.Requests[idx[i]], or trace.Requests[i] when idx is nil; its
	// client c is site-local client c / regions, modulo len(site.Clients).
	trace   *Trace
	idx     []int32
	regions int
	first   []int // per service, the site's index of its first request at this site (-1: none)
	opts    Options
	obs     replayObs
	res     *ReplayResult

	inFlight int
	queued   []int // arrival-order request indices waiting on MaxInFlight
	done     int
	free     []*flight // recycled in-flight records
}

// flight is one started request: the site's request index, its arrival, and
// its service. complete is bound once per record and is the request's
// completion callback.
type flight struct {
	r        *siteReplay
	i        int
	at       sim.Time
	service  int
	complete func(*simnet.HTTPResult, error)
}

// stage registers the trace's services at one site and schedules the site's
// share of the replay (the requests idx selects, see siteReplay, and
// opts.Handovers, client indices site-local): preparation, then — anchored
// at preparation end, so arrival spacing is preserved — the handover lane
// and the arrival lane. name prefixes the result series. The inputs must
// have passed validate; nothing runs until the caller runs the site's kernel.
func stage(site *testbed.Site, name, serviceKey string, trace *Trace, idx []int32, regions int, opts Options) (*siteReplay, error) {
	services, handovers := trace.Config.Services, opts.Handovers
	exact := opts.ExactSamples
	if exact == 0 {
		exact = DefaultExactSamples
	}
	newSeries := func(name string) *metrics.Series {
		if exact < 0 {
			return metrics.NewSeries(name)
		}
		return metrics.NewBoundedSeries(name, exact)
	}
	r := &siteReplay{
		site: site, serviceKey: serviceKey, trace: trace, idx: idx, regions: regions, opts: opts,
		obs: newReplayObs(opts.Trace, opts.Counters),
		res: &ReplayResult{
			Totals:        newSeries(name + "/totals"),
			FirstRequests: newSeries(name + "/first"),
			Registrations: make([]spec.Registration, services),
		},
	}
	annotated := make([]*spec.Annotated, services)
	for i := range annotated {
		var err error
		if annotated[i], r.res.Registrations[i], err = site.RegisterCatalogService(serviceKey); err != nil {
			return nil, err
		}
	}

	r.first = make([]int, services)
	for s := range r.first {
		r.first[s] = -1
	}
	for i := range r.requests() {
		if q := r.req(i); r.first[q.Service] < 0 {
			r.first[q.Service] = i
		}
	}

	k := site.K
	prepDone := sim.NewPromise[sim.Time](k)
	k.Go("prepare", func(p *sim.Proc) {
		defer func() { prepDone.Resolve(p.Now()) }()
		if !opts.PrePull && !opts.PreCreate {
			return
		}
		for _, cl := range site.Ctrl.Clusters() {
			for _, a := range annotated {
				if err := cl.Pull(p, a); err != nil {
					r.res.Errors++
					return
				}
				if opts.PreCreate {
					if err := cl.Create(p, a); err != nil {
						r.res.Errors++
						return
					}
				}
			}
		}
	})

	// Each lane is one monotone event batch that the kernel reads in place
	// from the schedule (O(1) staging memory, no heap churn). The mobility
	// lane is staged before the arrival lane so a handover and an arrival at
	// the same instant order handover-first at every shard count.
	if len(handovers) > 0 {
		prepDone.OnDone(func(t0 sim.Time, _ error) {
			k.AtBatch(len(handovers), func(i int) sim.Time { return t0 + handovers[i].At },
				func(i int) { site.Handover(handovers[i].Client, handovers[i].To) })
		})
	}
	prepDone.OnDone(func(t0 sim.Time, _ error) {
		k.AtBatch(r.requests(), func(i int) sim.Time { return t0 + r.req(i).At }, r.arrive)
	})
	return r, nil
}

// requests returns the number of requests the site replays.
func (r *siteReplay) requests() int {
	if r.idx != nil {
		return len(r.idx)
	}
	return len(r.trace.Requests)
}

// req returns the site's request i, its client site-local.
func (r *siteReplay) req(i int) Request {
	if r.idx != nil {
		i = int(r.idx[i])
	}
	q := r.trace.Requests[i]
	q.Client /= r.regions
	return q
}

// arrive is the arrival lane's event: start request i now, or queue it
// behind the in-flight cap.
func (r *siteReplay) arrive(i int) {
	if r.opts.MaxInFlight > 0 && r.inFlight >= r.opts.MaxInFlight {
		r.queued = append(r.queued, i)
		return
	}
	r.start(i, r.site.K.Now())
}

// start issues request i, measured from its arrival at, and accounts for it
// when it completes.
func (r *siteReplay) start(i int, at sim.Time) {
	r.inFlight++
	r.obs.in.Add(1)
	q := r.req(i)
	var f *flight
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		f = &flight{r: r}
		f.complete = f.finish
	}
	f.i, f.at, f.service = i, at, q.Service
	r.site.RequestAsync(q.Client%len(r.site.Clients), r.res.Registrations[q.Service], r.serviceKey, r.opts.RequestTimeout,
		f.complete)
}

// finish accounts for the completed request (hr is borrowed, see
// HTTPGetAsync). The record goes back to the free list before a queued
// request starts, so that request may reuse it.
func (f *flight) finish(hr *simnet.HTTPResult, err error) {
	r, i, at, service := f.r, f.i, f.at, f.service
	r.free = append(r.free, f)
	now := r.site.K.Now()
	r.inFlight--
	r.done++
	r.obs.in.Add(-1)
	r.obs.request(at, now, r.serviceKey, err)
	if err != nil {
		r.res.Errors++
	} else {
		r.res.Totals.Add(at, hr.Total)
		if r.first[service] == i {
			r.res.FirstRequests.Add(at, hr.Total)
		}
	}
	if len(r.queued) > 0 { // only under MaxInFlight, and a slot just freed
		next := r.queued[0]
		r.queued = r.queued[1:]
		r.start(next, now)
	}
}

// finish closes the site's result once its kernel has reached the run bound.
func (r *siteReplay) finish() *ReplayResult {
	r.res.Unfinished = r.requests() - r.done
	return r.res
}
