package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
)

// deployError is one failed deployment (retries exhausted), surfaced per
// variant in the uniform scale-faults JSON.
type deployError struct {
	Cluster  string `json:"cluster"`
	Service  string `json:"service"`
	Attempts int    `json:"attempts"`
	Retries  int    `json:"retries"`
	Error    string `json:"error"`
}

// variantResult is the outcome of one sweep variant. The embedded
// pointResult's Requests is the actual replayed trace length (after
// clamping) and its Totals the variant's full latency distribution, ready
// to Merge; Wall is excluded from the fingerprint (it is the only
// nondeterministic output a pooled variant reports).
type variantResult struct {
	Variant pointSpec
	// Err records a setup failure (unknown scheduler, replay error); the
	// metrics fields are zero when set.
	Err error
	pointResult
	// Fault-path outputs. Deterministic, but deliberately EXCLUDED from the
	// fingerprint: the fingerprint predates them and must keep hashing the
	// exact same byte sequence so fault-free sweeps stay comparable across
	// releases (mixing even zero-valued fields would change it). The
	// Counters snapshot is excluded for the same reason.
	DeployAttempts  int // recorded deployment attempts, failed runs included
	DeployRetries   int // failed attempts that were retried under backoff
	DeployFailures  int // deployments that exhausted retries
	FallbackDeploys int // deployments served by the next-best cluster
	CloudFallbacks  int // held packets released to the cloud after failure
	// FailedDeploys details every deployment that exhausted retries
	// (cluster, service, attempts, error string).
	FailedDeploys []deployError
}

// Fingerprint digests every deterministic output of the variant. Running the
// same variant serially or on any worker of a parallel sweep must produce
// the same fingerprint bit for bit.
func (r variantResult) Fingerprint() uint64 {
	h := newFNV()
	h.u64(uint64(r.Requests))
	h.u64(uint64(r.Errors))
	h.u64(uint64(r.Deployments))
	h.u64(uint64(r.Median))
	h.u64(uint64(r.P95))
	h.u64(uint64(r.Mean))
	h.u64(uint64(r.Max))
	if r.Totals != nil {
		h.u64(r.Totals.Fingerprint())
	}
	return uint64(h)
}

// runVariant replays the variant on its private testbed and samples the
// controller's deployment records.
func runVariant(v pointSpec) variantResult {
	res := variantResult{Variant: v}
	run, err := runPoint(v)
	if err != nil {
		res.Err = err
		return res
	}
	res.pointResult = run.pointResult
	res.Totals.Name = v.Name
	ctrl := run.tb.Ctrl
	for _, rec := range ctrl.RecordsIncluding("", "", true) {
		res.DeployAttempts += rec.Attempts
		if rec.Err != nil {
			res.FailedDeploys = append(res.FailedDeploys, deployError{
				Cluster:  rec.Cluster,
				Service:  rec.Service,
				Attempts: rec.Attempts,
				Retries:  rec.Retries,
				Error:    rec.Err.Error(),
			})
		}
	}
	res.DeployRetries = int(ctrl.Stats.DeployRetries)
	res.DeployFailures = int(ctrl.Stats.DeployFailures)
	res.FallbackDeploys = int(ctrl.Stats.FallbackDeployments)
	res.CloudFallbacks = int(ctrl.Stats.CloudFallbacks)
	return res
}

// sweepResult aggregates a sweep run.
type sweepResult struct {
	// Variants holds per-variant results in input order (independent of
	// completion order).
	Variants []variantResult
	// Merged is the union latency distribution across all variants (exact
	// bucket merge; see metrics.Hist.Merge).
	Merged *metrics.Hist
	// Procs is the worker count actually used; Wall the host wall clock of
	// the whole sweep.
	Procs int
	Wall  time.Duration
}

// runSweep runs the variants on p.Procs workers (<= 0 = GOMAXPROCS, 1 =
// serially), dealt over a channel, each worker running whole variants on
// their own kernels. Results land in input order, so the output is
// deterministic regardless of worker scheduling. A variant that fails is
// reported in its variantResult.Err; the returned error is reserved for the
// sweep itself.
//
// p's sinks reach the variants through private ones: a tracer each when p
// traces or attributes, which drain streams into p's afterwards in variant
// order (each keeps at most its ring capacity of newest spans), and a
// registry each when p counts, which the variant keeps: its snapshot is
// the variant's counters.
func runSweep(p Params, vs []pointSpec) (sweepResult, error) {
	for i := range vs {
		if p.Trace != nil || p.Attrib != nil {
			vs[i].Trace = obs.NewTracer(0)
		}
		if p.Counters != nil {
			vs[i].Counters = obs.NewRegistry()
		}
	}
	procs := p.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	if procs > len(vs) {
		procs = len(vs)
	}
	start := time.Now()
	results := make([]variantResult, len(vs))
	if procs <= 1 {
		for i, v := range vs {
			results[i] = runVariant(v)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = runVariant(vs[i])
				}
			}()
		}
		for i := range vs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	merged := metrics.NewHist("sweep/merged")
	for i := range results {
		if err := merged.Merge(results[i].Totals); err != nil {
			return sweepResult{}, fmt.Errorf("merging variant %s: %w", results[i].Variant.Name, err)
		}
	}
	if p.Trace != nil || p.Attrib != nil {
		tracers := make([]*obs.Tracer, len(vs))
		for i := range vs {
			tracers[i] = vs[i].Trace
		}
		drain(p.Trace, p.Attrib, tracers)
	}
	return sweepResult{
		Variants: results,
		Merged:   merged,
		Procs:    procs,
		Wall:     time.Since(start),
	}, nil
}

// waitingSweep returns the default fig. 9-style variant set: seeds × the
// with/without-waiting scheduler axis (wait-nearest holds the first request
// until the nearest deployment is ready; no-wait answers from wherever the
// service already runs).
func waitingSweep(seeds int, requests int) []pointSpec {
	var vs []pointSpec
	for s := 0; s < seeds; s++ {
		for _, sched := range []string{"wait-nearest", "no-wait"} {
			vs = append(vs, pointSpec{
				Name:      fmt.Sprintf("seed%d/%s", s+1, sched),
				Seed:      int64(s + 1),
				Requests:  requests,
				Scheduler: sched,
				Clusters:  2,
			})
		}
	}
	return vs
}

var sweepColumns = []column[variantResult]{
	{"variant", "", "%-24s", func(v variantResult) any { return v.Variant.Name }},
	{"requests", "requests", "%10d", func(v variantResult) any { return v.Requests }},
	{"errors", "errors", "%8d", func(v variantResult) any { return v.Errors }},
	{"", "unfinished", "", func(v variantResult) any { return v.Unfinished }},
	{"deploys", "deployments", "%8d", func(v variantResult) any { return v.Deployments }},
	{"median", "median_ms", "%10v", func(v variantResult) any { return v.Median }},
	{"p95", "p95_ms", "%10v", func(v variantResult) any { return v.P95 }},
	{"", "mean_ms", "", func(v variantResult) any { return v.Mean }},
	{"", "max_ms", "", func(v variantResult) any { return v.Max }},
	{"", "wall_ms", "", func(v variantResult) any { return v.Wall }},
	{"", "fingerprint", "", func(v variantResult) any { return digest(v.Fingerprint()) }},
}

// sweepMergedColumns is the aggregate line under the variant table (same
// widths, no header of its own) and the "merged" JSON entry.
var sweepMergedColumns = []column[sweepResult]{
	{"", "", "%-24s", func(sweepResult) any { return "merged" }},
	{"", "requests", "%10d", func(r sweepResult) any { return r.Merged.Len() }},
	{"", "", "%8s", func(sweepResult) any { return "-" }},
	{"", "", "%8s", func(sweepResult) any { return "-" }},
	{"", "median_ms", "%10v", func(r sweepResult) any { return r.Merged.Median() }},
	{"", "p95_ms", "%10v", func(r sweepResult) any { return r.Merged.Percentile(95) }},
	{"", "procs", "", func(r sweepResult) any { return r.Procs }},
	{"", "wall_ms", "", func(r sweepResult) any { return r.Wall }},
}

// variantTable renders a sweep's title line and its per-variant table.
func (r sweepResult) variantTable(b *strings.Builder, kind string, cols []column[variantResult]) {
	fmt.Fprintf(b, "%s of %d variants on %d workers (%v wall)\n",
		kind, len(r.Variants), r.Procs, r.Wall.Round(time.Millisecond))
	tableHeader(b, cols)
	for _, v := range r.Variants {
		if v.Err != nil {
			fmt.Fprintf(b, "  "+cols[0].format+" failed: %v\n", v.Variant.Name, v.Err)
			continue
		}
		tableRow(b, cols, v)
	}
}

// variantJSON returns one uniform entry per variant.
func (r sweepResult) variantJSON(experiment string, cols []column[variantResult]) []JSONResult {
	out := make([]JSONResult, 0, len(r.Variants)+1)
	for _, v := range r.Variants {
		m := map[string]float64{}
		flatten(m, "", cols, v)
		if v.Err != nil {
			m["failed"] = 1
		}
		out = append(out, JSONResult{
			Experiment:   experiment,
			Name:         v.Variant.Name,
			Seed:         v.Variant.Seed,
			Metrics:      m,
			Counters:     v.Counters,
			DeployErrors: v.FailedDeploys,
		})
	}
	return out
}

// variantCounters renders each counted variant's registry in the
// Prometheus format under a comment header: what -counters adds to a
// sweep's text (its JSON entries carry the same as their counters blocks).
func (r sweepResult) variantCounters(b *strings.Builder) {
	for _, v := range r.Variants {
		if v.Variant.Counters != nil {
			fmt.Fprintf(b, "# variant %s\n", v.Variant.Name)
			_ = obs.WritePrometheus(b, v.Variant.Counters) // a strings.Builder takes every write
		}
	}
}

// String renders the sweep outcome as a table.
func (r sweepResult) String() string {
	var b strings.Builder
	r.variantTable(&b, "sweep", sweepColumns)
	tableRow(&b, sweepMergedColumns, r)
	r.variantCounters(&b)
	return b.String()
}

// JSON returns one uniform entry per variant plus a "merged" aggregate.
func (r sweepResult) JSON() []JSONResult {
	m := map[string]float64{}
	flatten(m, "", sweepMergedColumns, r)
	return append(r.variantJSON("sweep", sweepColumns),
		JSONResult{Experiment: "sweep", Name: "merged", Metrics: m})
}
