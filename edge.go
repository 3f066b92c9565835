// Package transparentedge is the public API of the transparent-edge
// reproduction: an SDN controller that transparently redirects client
// requests for registered cloud services to nearby edge clusters and
// deploys the containerized services on demand — either holding the first
// request until the new instance is ready, or serving it from a farther
// instance (or the cloud) while the optimal edge warms up.
//
// The package reproduces Hammer & Hellwagner, "Distributed On-Demand
// Deployment for Transparent Access to 5G Edge Computing Services"
// (IPDPS Workshops 2023) as a deterministic discrete-event simulation:
// the C³ testbed (EGS, OVS switch, Raspberry Pi clients, registries), a
// Docker-like engine and a miniature Kubernetes sharing one containerd
// runtime, and the paper's SDN controller with FlowMemory, Dispatcher, and
// pluggable Global/Local schedulers.
//
// Quick start:
//
//	tb := transparentedge.NewTestbed(transparentedge.TestbedOptions{
//		Seed:         1,
//		EnableDocker: true,
//	})
//	a, reg, _ := tb.RegisterCatalogService(transparentedge.Nginx)
//	tb.K.Go("client", func(p *transparentedge.Proc) {
//		res, _ := tb.Request(p, 0, reg, transparentedge.Nginx, 0)
//		fmt.Println("first request:", res.Total, "->", a.UniqueName)
//	})
//	tb.K.RunUntil(time.Minute)
//
// The experiment runners (RunTableI, RunScaleUpStudy, ...) regenerate every
// table and figure of the paper's evaluation; see EXPERIMENTS.md.
package transparentedge

import (
	"io"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/core"
	"transparentedge/internal/experiments"
	"transparentedge/internal/faults"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// Simulation kernel types. All latencies in this library are composed on a
// deterministic virtual clock.
type (
	// Kernel is the discrete-event simulation executor.
	Kernel = sim.Kernel
	// Proc is a simulation process; blocking operations suspend it in
	// virtual time.
	Proc = sim.Proc
)

// NewKernel returns a simulation kernel seeded for reproducibility.
func NewKernel(seed int64) *Kernel { return sim.New(seed) }

// Network and service types.
type (
	// Addr is a network address.
	Addr = simnet.Addr
	// Bytes is a payload size.
	Bytes = simnet.Bytes
	// HTTPResult is one measured request (connect and total time).
	HTTPResult = simnet.HTTPResult
	// Registration identifies a registered edge service by its cloud
	// address (domain/IP and port).
	Registration = spec.Registration
	// Annotated is a deployment-ready, automatically annotated service
	// definition.
	Annotated = spec.Annotated
	// Instance is a running service instance endpoint in some cluster.
	Instance = cluster.Instance
)

// Controller types (the paper's contribution).
type (
	// Controller is the SDN controller: transparent redirection,
	// FlowMemory, Dispatcher, and on-demand deployment.
	Controller = core.Controller
	// ControllerConfig configures the controller.
	ControllerConfig = core.Config
	// GlobalScheduler chooses the FAST (current request) and BEST (future
	// requests) edge clusters.
	GlobalScheduler = core.GlobalScheduler
	// DeployRecord captures per-phase deployment timings
	// (Pull/Create/ScaleUp/ReadyWait).
	DeployRecord = core.DeployRecord
	// FlowMemory memorizes installed redirect flows.
	FlowMemory = core.FlowMemory
)

// NewScheduler loads a Global Scheduler by configuration name; see
// SchedulerNames for the built-ins ("proximity", "wait-nearest", "no-wait",
// "docker-first").
func NewScheduler(name string) (GlobalScheduler, error) { return core.NewScheduler(name) }

// RegisterScheduler adds a custom Global Scheduler under a configuration
// name (the paper's dynamically loaded scheduler plug-ins).
func RegisterScheduler(name string, factory func() GlobalScheduler) {
	core.RegisterScheduler(name, factory)
}

// SchedulerNames lists the registered Global Scheduler names.
func SchedulerNames() []string { return core.SchedulerNames() }

// Testbed types: the simulated C³ evaluation setup (fig. 8).
type (
	// Testbed is the assembled simulation: switch, EGS, clients,
	// registries, clusters, and controller.
	Testbed = testbed.Testbed
	// TestbedOptions selects what to build.
	TestbedOptions = testbed.Options
)

// NewTestbed assembles a simulated C³ testbed.
func NewTestbed(opts TestbedOptions) *Testbed { return testbed.New(opts) }

// Cluster kind tags.
const (
	KindDocker     = testbed.KindDocker
	KindKubernetes = testbed.KindKubernetes
)

// The paper's Table I service keys.
const (
	Asm     = catalog.Asm
	Nginx   = catalog.Nginx
	ResNet  = catalog.ResNet
	NginxPy = catalog.NginxPy
)

// ServiceKeys returns the Table I service keys in order.
func ServiceKeys() []string { return catalog.Keys() }

// Workload types: the bigFlows-derived evaluation trace (figs. 9/10).
type (
	// Trace is a generated request trace.
	Trace = workload.Trace
	// TraceConfig parameterizes trace generation.
	TraceConfig = workload.Config
	// ReplayResult aggregates one trace replay.
	ReplayResult = workload.ReplayResult
)

// DefaultTraceConfig reproduces the paper's trace parameters (42 services,
// 1708 requests, 5 minutes, >=20 requests per service).
func DefaultTraceConfig(seed int64) TraceConfig { return workload.DefaultConfig(seed) }

// GenerateTrace synthesizes a trace.
func GenerateTrace(cfg TraceConfig) *Trace { return workload.Generate(cfg) }

// ReplayTrace replays a trace against a testbed with one of the Table I
// service types; see workload.Replay for the pre-pull/pre-create knobs.
func ReplayTrace(tb *Testbed, tr *Trace, serviceKey string, prePull, preCreate bool) (*ReplayResult, error) {
	return workload.Replay(tb, tr, serviceKey, prePull, preCreate)
}

// ReplayOptions configures a replay run: warm-up conditions, the in-flight
// cap, the exact-vs-histogram metrics threshold, the per-request timeout,
// obs handles, and an optional handover schedule.
type ReplayOptions = workload.Options

// Metrics types.
type (
	// Series is a latency sample collection with medians/percentiles.
	Series = metrics.Series
	// Hist is a fixed-memory log-bucketed histogram; mergeable across
	// sweep variants (Hist.Merge is exact on bucket state).
	Hist = metrics.Hist
)

// Observability types (DESIGN.md §12): deterministic virtual-time span
// traces, an atomic counter/gauge registry, and exporters for the Chrome
// trace-event format (Perfetto) and the Prometheus text exposition. A nil
// tracer or registry is valid everywhere and costs nothing.
type (
	// Tracer collects per-request span trees into a fixed-size ring.
	Tracer = obs.Tracer
	// Span is one completed pipeline interval in virtual time.
	Span = obs.Span
	// CounterRegistry hands out named counters/gauges and snapshots them.
	CounterRegistry = obs.Registry
	// ObsEvent is a structured controller lifecycle event; ObsEvent.String
	// renders it as one log line.
	ObsEvent = obs.Event
	// ChromeTraceWriter streams spans to a Perfetto-loadable trace file.
	ChromeTraceWriter = obs.ChromeWriter
	// ExperimentOption attaches cross-cutting wiring (tracing, counters) to
	// an experiment runner.
	ExperimentOption = experiments.Option
)

// NewTracer returns a span tracer whose ring holds capacity spans (<= 0
// selects obs.DefaultTracerCapacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewCounterRegistry returns an empty counter/gauge registry.
func NewCounterRegistry() *CounterRegistry { return obs.NewRegistry() }

// NewChromeTraceWriter starts a streaming Chrome trace-event array on w;
// connect its Emit as a Tracer sink and Close when done.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter { return obs.NewChromeWriter(w) }

// WriteChromeTrace writes spans as one complete Chrome trace-event file.
func WriteChromeTrace(w io.Writer, spans []Span) error { return obs.WriteChrome(w, spans) }

// WritePrometheusText writes the registry snapshot in the Prometheus text
// exposition format.
func WritePrometheusText(w io.Writer, r *CounterRegistry) error { return obs.WritePrometheus(w, r) }

// WithTrace wires a span tracer into an experiment runner's testbed and
// workload.
func WithTrace(tr *Tracer) ExperimentOption { return experiments.WithTrace(tr) }

// WithCounters wires a counter registry into an experiment runner's testbed.
func WithCounters(reg *CounterRegistry) ExperimentOption { return experiments.WithCounters(reg) }

// WithSteerBackend selects the steering backend ("openflow", "srv6") for an
// experiment runner's testbeds; "" keeps the default per-flow rule installer.
func WithSteerBackend(name string) ExperimentOption { return experiments.WithSteerBackend(name) }

// Latency attribution types (DESIGN.md §17): deterministic virtual-time
// critical-path analysis over the span trees, an exclusive-time phase
// breakdown whose per-tree sum equals the root span's duration exactly,
// flame-graph export (collapsed stacks and gzipped pprof proto), and
// SLO-triggered flight recording. Attribution is a passive span sink: it
// never changes a run's deterministic outputs, and a nil collector is free.
type (
	// AttribCollector streams spans into the attribution state; connect it
	// with WithAttrib or feed it spans via Observe/EndStream directly.
	AttribCollector = attrib.Collector
	// AttribOptions configures the collector (flight-recorder depth, SLOs,
	// breach callback).
	AttribOptions = attrib.Options
	// AttribReport is the aggregated view: per-phase exclusive/critical-path
	// histograms, root-span distributions, folded flame stacks, breaches.
	AttribReport = attrib.Report
	// AttribBreach is one SLO violation with its flight-recorder dump.
	AttribBreach = attrib.Breach
	// SLO is one latency objective ("request:p99=2ms"; see ParseSLOs).
	SLO = attrib.SLO
	// KernelStats is the DES kernel's introspection snapshot (event and
	// timing-wheel counters; free and deterministic).
	KernelStats = sim.KernelStats
	// AttribSweepResult is the scale-attrib experiment's result: per-phase
	// dispatch latency openflow-vs-srv6 across the client axis, plus the
	// attribution determinism gates at shard counts {1,2,4,8}.
	AttribSweepResult = experiments.AttribSweepResult
)

// NewAttribCollector returns a latency-attribution collector.
func NewAttribCollector(opts AttribOptions) *AttribCollector { return attrib.New(opts) }

// ParseSLOs parses a comma-separated SLO list ("[root:]pQQ=duration", e.g.
// "p99=2ms,dispatch:p50=300us"); "" means none.
func ParseSLOs(specs string) ([]SLO, error) { return attrib.ParseSLOs(specs) }

// WithAttrib streams every span an experiment run emits into the collector;
// tracing is implied internally even without WithTrace.
func WithAttrib(col *AttribCollector) ExperimentOption { return experiments.WithAttrib(col) }

// AttribReportMetrics flattens an attribution report into a uniform JSON
// metric map (the shape ExperimentJSON carries).
func AttribReportMetrics(m map[string]float64, rep *AttribReport) {
	experiments.AttribReportMetrics(m, rep)
}

// RunAttribSweep runs the latency-attribution sweep: the per-phase dispatch
// latency comparison between steering backends across the client axis, and
// the determinism gates (attribution-on replays fingerprint byte-identical
// to attribution-off at every shard count, and the attribution report
// itself is shard-count-independent).
func RunAttribSweep(seed int64, requests int) (AttribSweepResult, error) {
	return experiments.AttribSweep(seed, requests)
}

// Experiment runners — one per table/figure of the paper's evaluation.

// RunTableI reproduces Table I from the catalog.
func RunTableI() experiments.TableIResult { return experiments.TableI() }

// RunFig9And10 generates the evaluation trace and its distributions.
func RunFig9And10(seed int64) experiments.TraceResult { return experiments.Fig9And10(seed) }

// RunScaleUpStudy reproduces figs. 11/14 (preCreate=true) or figs. 12/15
// (preCreate=false). scale in (0,1] shrinks the trace for quick runs.
func RunScaleUpStudy(seed int64, preCreate bool, scale float64, options ...ExperimentOption) (*experiments.ScaleUpResult, error) {
	return experiments.ScaleUpStudy(seed, preCreate, scale, options...)
}

// RunFig13Pull reproduces fig. 13 (pull times per registry placement).
func RunFig13Pull(seed int64, options ...ExperimentOption) (*experiments.PullResult, error) {
	return experiments.Fig13Pull(seed, options...)
}

// RunFig16Warm reproduces fig. 16 (requests to running instances).
func RunFig16Warm(seed int64, requests int, options ...ExperimentOption) (*experiments.WarmResult, error) {
	return experiments.Fig16Warm(seed, requests, options...)
}

// RunHybridStudy reproduces the §VII Docker-then-Kubernetes comparison.
func RunHybridStudy(seed int64, options ...ExperimentOption) (*experiments.HybridResult, error) {
	return experiments.HybridStudy(seed, options...)
}

// Ablation and future-work runners (beyond the paper's figures; see
// DESIGN.md §4).

// RunAblationFlowMemory quantifies §V's FlowMemory design argument.
func RunAblationFlowMemory(seed int64) (*experiments.FlowMemoryResult, error) {
	return experiments.AblationFlowMemory(seed)
}

// RunAblationIdleTimeout sweeps the switch-side idle timeout.
func RunAblationIdleTimeout(seed int64, timeouts []time.Duration) (*experiments.IdleTimeoutResult, error) {
	return experiments.AblationIdleTimeout(seed, timeouts)
}

// RunAblationWaitingPolicy compares the §IV deployment policies.
func RunAblationWaitingPolicy(seed int64) (*experiments.WaitingPolicyResult, error) {
	return experiments.AblationWaitingPolicy(seed)
}

// RunFutureWorkServerless runs the §VIII serverless cold-start comparison.
func RunFutureWorkServerless(seed int64) (*experiments.ServerlessResult, error) {
	return experiments.FutureWorkServerless(seed)
}

// RunAblationProactive compares on-demand vs. EWMA-predicted proactive
// deployment for a periodic client.
func RunAblationProactive(seed int64) (*experiments.ProactiveResult, error) {
	return experiments.AblationProactive(seed)
}

// NewEWMAPredictor returns the built-in inter-arrival predictor for
// proactive deployment.
func NewEWMAPredictor(alpha float64) *core.EWMAPredictor { return core.NewEWMAPredictor(alpha) }

// Predictor forecasts upcoming service demand for proactive deployment.
type Predictor = core.Predictor

// RunAblationProbeInterval sweeps the readiness-probe interval.
func RunAblationProbeInterval(seed int64, intervals []time.Duration) (*experiments.ProbeResult, error) {
	return experiments.AblationProbeInterval(seed, intervals)
}

// RunAblationHierarchy quantifies fig. 3's hierarchy argument.
func RunAblationHierarchy(seed int64) (*experiments.HierarchyResult, error) {
	return experiments.AblationHierarchy(seed)
}

// Scale-study result types.
type (
	// DispatchScaleResult is one dispatch-latency measurement.
	DispatchScaleResult = experiments.DispatchScaleResult
	// CookieChurnResult summarizes controller-state sizes over a churn run.
	CookieChurnResult = experiments.CookieChurnResult
	// ReplayScaleResult summarizes one large-trace replay measurement.
	ReplayScaleResult = experiments.ReplayScaleResult
	// ReplayShardResult summarizes one sharded multi-region replay.
	ReplayShardResult = experiments.ReplayShardResult
	// SteerSweepResult compares the steering backends (table pressure,
	// latency, determinism gates) across the client-count axis.
	SteerSweepResult = experiments.SteerSweepResult
	// SteerPoint is one (backend, client count) sweep measurement.
	SteerPoint = experiments.SteerPoint
)

// RunDispatchScale measures the packet-in dispatch latency over the given
// number of clusters, with parallel (default) or the paper's original
// serial per-cluster state gathering.
func RunDispatchScale(seed int64, clusters int, serial bool, options ...ExperimentOption) (DispatchScaleResult, error) {
	return experiments.DispatchScale(seed, clusters, serial, options...)
}

// RunCookieChurn replays one-shot clients to show the controller's cookie,
// client-location, and flow-memory state stays bounded by the idle
// timeouts (peaks) and drains to zero afterwards (finals).
func RunCookieChurn(seed int64, clients int, options ...ExperimentOption) (CookieChurnResult, error) {
	return experiments.CookieChurn(seed, clients, options...)
}

// RunReplayScale replays a synthetic trace of the given length against the
// Docker testbed, measuring wall time, allocations per request, and
// retained series memory. An unknown steering backend name (WithSteerBackend)
// is an error.
func RunReplayScale(seed int64, requests int, options ...ExperimentOption) (ReplayScaleResult, error) {
	return experiments.ReplayScale(seed, requests, options...)
}

// RunReplayShard replays a synthetic trace against the sharded multi-region
// scenario on the given number of kernels. shards == 1 is the serial
// degenerate case; every shard count produces a bit-identical Fingerprint.
// spec, when non-nil, injects a deterministic fault plan into every region.
func RunReplayShard(seed int64, requests, shards int, spec *FaultSpec, options ...ExperimentOption) (ReplayShardResult, error) {
	return experiments.ReplayShard(seed, requests, shards, spec, options...)
}

// RunSteerSweep compares the steering backends (per-flow openflow rules vs.
// the stateless SRv6-style ingress encoding) on the fig. 9-style replay
// across a client-count axis, and runs each backend through the sharded and
// traced fingerprint parity gates. backends nil/empty compares all built-in
// backends.
func RunSteerSweep(seed int64, requests int, backends []string) (SteerSweepResult, error) {
	return experiments.SteerSweep(seed, requests, backends)
}

// RunMobilitySweep replays the scale trace under client mobility on the
// gNB-cell topology, comparing the steering backends' continuity gap and
// flow-mod churn across handover rates (the Fondo-Ferreiro comparison), and
// gates each backend's sharded mobility replay on fingerprint parity at
// shard counts {1,2,4,8}. backends nil/empty compares all built-in
// backends.
func RunMobilitySweep(seed int64, requests int, backends []string) (experiments.MobilitySweepResult, error) {
	return experiments.MobilitySweep(seed, requests, backends)
}

// Sweep engine types: many independent scenario variants, each on a private
// kernel, sharded across a worker pool (DESIGN.md §10).
type (
	// SweepVariant is one scenario of a parameter sweep.
	SweepVariant = experiments.SweepVariant
	// SweepResult aggregates a sweep (per-variant results + merged Hist).
	SweepResult = experiments.SweepResult
	// ExperimentJSON is the uniform machine-readable result shape the
	// edgesim scale/sweep subcommands emit.
	ExperimentJSON = experiments.JSONResult
)

// RunSweep executes the variants across a worker pool of the given size
// (procs <= 0 uses GOMAXPROCS; 1 runs serially). Per-variant results are
// bit-identical regardless of procs. A variant that cannot run (unknown
// scheduler, replay error) reports it in its own result's Err.
func RunSweep(variants []SweepVariant, procs int) (SweepResult, error) {
	return experiments.Sweep{Variants: variants, Procs: procs}.Run()
}

// WaitingSweepVariants returns the default fig. 9-style variant set: seeds
// crossed with the with/without-waiting scheduler axis.
func WaitingSweepVariants(seeds, requests int) []SweepVariant {
	return experiments.WaitingSweep(seeds, requests)
}

// Fault-injection types (DESIGN.md §11): a deterministic, seed-driven fault
// plan consulted by the cluster implementations and the network.
type (
	// FaultSpec declares a whole testbed's fault plan.
	FaultSpec = faults.Spec
	// FaultSweepResult aggregates a fault-rate sweep.
	FaultSweepResult = experiments.FaultSweepResult
)

// FaultSweepVariants returns the scale-faults variant set: the same seeded
// cold trace under each injected fault rate (rate 0 = fault-free baseline).
func FaultSweepVariants(seed int64, requests int, rates []float64) []SweepVariant {
	return experiments.FaultSweepVariants(seed, requests, rates)
}
