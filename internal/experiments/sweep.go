package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"transparentedge/internal/faults"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
)

// SweepVariant describes one independent scenario of a parameter sweep: a
// seeded synthetic trace replayed against its own freshly built testbed.
// Because every variant owns a private sim.Kernel and simnet.Network,
// variants are deterministic individually and embarrassingly parallel
// collectively — the fig. 9/10-style comparison pattern (with/without
// waiting, scheduler policies, cluster counts) at trace scale.
type SweepVariant struct {
	// Name labels the variant in results ("" = synthesized from the knobs).
	Name string
	// Seed drives both trace generation and testbed randomness.
	Seed int64
	// Requests is the synthetic trace length (clamped to a small minimum).
	Requests int
	// Scheduler is a core scheduler name ("wait-nearest", "no-wait",
	// "proximity", "docker-first"; "" = testbed default). "no-wait" vs the
	// default is the paper's with/without-waiting axis.
	Scheduler string
	// Clusters selects the edge topology: 1 = the Docker edge cluster only
	// (default), 2 = add the far-edge Docker cluster (fig. 3 scenario).
	Clusters int
	// Cold skips image pre-pull and instance pre-create, so the sweep
	// measures on-demand deployment costs too.
	Cold bool
	// DeployRetries / ProbeMaxWait configure the controller's fault
	// hardening (0 = testbed defaults); RequestTimeout bounds each replayed
	// request (0 = wait forever). Timed-out requests count as errors.
	DeployRetries  int
	ProbeMaxWait   time.Duration
	RequestTimeout time.Duration
	// Faults, when non-nil and enabled, is the deterministic fault plan for
	// this variant's private testbed. Nil is the fault-free zero-cost path:
	// with Faults nil the variant's outputs are bit-identical to a build
	// without fault injection at all.
	Faults *faults.Spec
	// Trace / Counters wire the variant's private testbed and replay into
	// the obs layer. Parallel sweeps must give each variant its own handles:
	// the types are concurrency-safe, but sharing one tracer ring across
	// variants would interleave spans in completion order. Nil = off at zero
	// cost, with outputs bit-identical to an uninstrumented run.
	Trace    *obs.Tracer
	Counters *obs.Registry
}

// DeployError is one failed deployment (retries exhausted), surfaced per
// variant in the uniform scale-faults JSON.
type DeployError struct {
	Cluster  string `json:"cluster"`
	Service  string `json:"service"`
	Attempts int    `json:"attempts"`
	Retries  int    `json:"retries"`
	Error    string `json:"error"`
}

// Label returns the variant's display name.
func (v SweepVariant) Label() string {
	if v.Name != "" {
		return v.Name
	}
	sched := v.Scheduler
	if sched == "" {
		sched = "default"
	}
	return fmt.Sprintf("seed%d/%s", v.Seed, sched)
}

// VariantResult is the outcome of one sweep variant. The embedded
// PointResult's Requests is the actual replayed trace length (after
// clamping) and its Totals the variant's full latency distribution, ready
// to Merge; Wall is excluded from the fingerprint (it is the only
// nondeterministic output a pooled variant reports).
type VariantResult struct {
	Variant SweepVariant
	// Err records a setup failure (unknown scheduler, replay error); the
	// metrics fields are zero when set.
	Err error
	PointResult
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
	FailedDeploys []DeployError
}

// Fingerprint digests every deterministic output of the variant. Running the
// same variant serially or on any worker of a parallel sweep must produce
// the same fingerprint bit for bit.
func (r VariantResult) Fingerprint() uint64 {
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
func runVariant(v SweepVariant) VariantResult {
	res := VariantResult{Variant: v}
	run, err := runPoint(pointSpec{SweepVariant: v})
	if err != nil {
		res.Err = err
		return res
	}
	res.PointResult = run.PointResult
	res.Totals.Name = v.Label()
	ctrl := run.tb.Ctrl
	for _, rec := range ctrl.RecordsIncluding("", "", true) {
		res.DeployAttempts += rec.Attempts
		if rec.Err != nil {
			res.FailedDeploys = append(res.FailedDeploys, DeployError{
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

// Sweep runs a set of variants across a bounded worker pool.
type Sweep struct {
	Variants []SweepVariant
	// Procs bounds the worker pool; <= 0 means GOMAXPROCS. 1 runs the
	// variants serially.
	Procs int
}

// SweepResult aggregates a sweep run.
type SweepResult struct {
	// Variants holds per-variant results in input order (independent of
	// completion order).
	Variants []VariantResult
	// Merged is the union latency distribution across all variants (exact
	// bucket merge; see metrics.Hist.Merge).
	Merged *metrics.Hist
	// Procs is the worker count actually used; Wall the host wall clock of
	// the whole sweep.
	Procs int
	Wall  time.Duration
}

// Run executes the sweep: variants are dealt to Procs workers over a
// channel, each worker running whole variants on its own kernels. Results
// land in input order, so the output is deterministic regardless of worker
// scheduling. A variant that fails is reported in its VariantResult.Err;
// the returned error is reserved for the sweep itself.
func (s Sweep) Run() (SweepResult, error) {
	procs := s.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	if procs > len(s.Variants) {
		procs = len(s.Variants)
	}
	start := time.Now()
	results := make([]VariantResult, len(s.Variants))
	if procs <= 1 {
		for i, v := range s.Variants {
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
					results[i] = runVariant(s.Variants[i])
				}
			}()
		}
		for i := range s.Variants {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	merged := metrics.NewHist("sweep/merged")
	for i := range results {
		if err := merged.Merge(results[i].Totals); err != nil {
			return SweepResult{}, fmt.Errorf("merging variant %s: %w", results[i].Variant.Label(), err)
		}
	}
	return SweepResult{
		Variants: results,
		Merged:   merged,
		Procs:    procs,
		Wall:     time.Since(start),
	}, nil
}

// WaitingSweep returns the default fig. 9-style variant set: seeds × the
// with/without-waiting scheduler axis (wait-nearest holds the first request
// until the nearest deployment is ready; no-wait answers from wherever the
// service already runs).
func WaitingSweep(seeds int, requests int) []SweepVariant {
	var vs []SweepVariant
	for s := 0; s < seeds; s++ {
		for _, sched := range []string{"wait-nearest", "no-wait"} {
			vs = append(vs, SweepVariant{
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

var sweepColumns = []column[VariantResult]{
	{"variant", "", "%-24s", func(v VariantResult) any { return v.Variant.Label() }},
	{"requests", "requests", "%10d", func(v VariantResult) any { return v.Requests }},
	{"errors", "errors", "%8d", func(v VariantResult) any { return v.Errors }},
	{"", "unfinished", "", func(v VariantResult) any { return v.Unfinished }},
	{"deploys", "deployments", "%8d", func(v VariantResult) any { return v.Deployments }},
	{"median", "median_ms", "%10v", func(v VariantResult) any { return v.Median }},
	{"p95", "p95_ms", "%10v", func(v VariantResult) any { return v.P95 }},
	{"", "mean_ms", "", func(v VariantResult) any { return v.Mean }},
	{"", "max_ms", "", func(v VariantResult) any { return v.Max }},
	{"", "wall_ms", "", func(v VariantResult) any { return v.Wall }},
	{"", "fingerprint", "", func(v VariantResult) any { return digest(v.Fingerprint()) }},
}

// sweepMergedColumns is the aggregate line under the variant table (same
// widths, no header of its own) and the "merged" JSON entry.
var sweepMergedColumns = []column[SweepResult]{
	{"", "", "%-24s", func(SweepResult) any { return "merged" }},
	{"", "requests", "%10d", func(r SweepResult) any { return r.Merged.Len() }},
	{"", "", "%8s", func(SweepResult) any { return "-" }},
	{"", "", "%8s", func(SweepResult) any { return "-" }},
	{"", "median_ms", "%10v", func(r SweepResult) any { return r.Merged.Median() }},
	{"", "p95_ms", "%10v", func(r SweepResult) any { return r.Merged.Percentile(95) }},
	{"", "procs", "", func(r SweepResult) any { return r.Procs }},
	{"", "wall_ms", "", func(r SweepResult) any { return r.Wall }},
}

// variantTable renders a sweep's title line and its per-variant table.
func (r SweepResult) variantTable(b *strings.Builder, kind string, cols []column[VariantResult]) {
	fmt.Fprintf(b, "%s of %d variants on %d workers (%v wall)\n",
		kind, len(r.Variants), r.Procs, r.Wall.Round(time.Millisecond))
	tableHeader(b, cols)
	for _, v := range r.Variants {
		if v.Err != nil {
			fmt.Fprintf(b, "  "+cols[0].format+" failed: %v\n", v.Variant.Label(), v.Err)
			continue
		}
		tableRow(b, cols, v)
	}
}

// variantJSON returns one uniform entry per variant.
func (r SweepResult) variantJSON(experiment string, cols []column[VariantResult]) []JSONResult {
	out := make([]JSONResult, 0, len(r.Variants)+1)
	for _, v := range r.Variants {
		m := map[string]float64{}
		flatten(m, "", cols, v)
		if v.Err != nil {
			m["failed"] = 1
		}
		out = append(out, JSONResult{
			Experiment:   experiment,
			Name:         v.Variant.Label(),
			Seed:         v.Variant.Seed,
			Metrics:      m,
			Counters:     v.Counters,
			DeployErrors: v.FailedDeploys,
		})
	}
	return out
}

// String renders the sweep outcome as a table.
func (r SweepResult) String() string {
	var b strings.Builder
	r.variantTable(&b, "sweep", sweepColumns)
	tableRow(&b, sweepMergedColumns, r)
	return b.String()
}

// JSON returns one uniform entry per variant plus a "merged" aggregate.
func (r SweepResult) JSON() []JSONResult {
	m := map[string]float64{}
	flatten(m, "", sweepMergedColumns, r)
	return append(r.variantJSON("sweep", sweepColumns),
		JSONResult{Experiment: "sweep", Name: "merged", Metrics: m})
}
