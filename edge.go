// Package transparentedge is the library the examples are written against:
// a deterministic discrete-event simulation of Hammer & Hellwagner,
// "Distributed On-Demand Deployment for Transparent Access to 5G Edge
// Computing Services" (IPDPS Workshops 2023). An SDN controller transparently
// redirects client requests for registered cloud services to nearby edge
// clusters and deploys the containerized services on demand — either holding
// the first request until the new instance is ready, or serving it from a
// farther instance (or the cloud) while the optimal edge warms up.
//
// NewTestbed assembles the C³ testbed (EGS, OVS switch, Raspberry Pi clients,
// registries, a Docker-like engine and a miniature Kubernetes sharing one
// containerd runtime) around the paper's controller; the Table I keys
// register its services; processes on the testbed's Kernel send requests in
// virtual time. Global Schedulers load by name, and the evaluation trace is
// generated and replayed with GenerateTrace and ReplayTrace. The edgesim
// command regenerates the paper's tables and figures (see EXPERIMENTS.md).
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
package transparentedge

import (
	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
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

type (
	// HTTPResult is one measured request (connect and total time).
	HTTPResult = simnet.HTTPResult
	// ObsEvent is a structured controller lifecycle event; ObsEvent.String
	// renders it as one log line.
	ObsEvent = obs.Event
)

// GlobalScheduler chooses the FAST (current request) and BEST (future
// requests) edge clusters.
type GlobalScheduler = core.GlobalScheduler

// NewScheduler loads a Global Scheduler by configuration name; see
// SchedulerNames for the built-ins ("proximity", "wait-nearest", "no-wait",
// "docker-first", "least-loaded").
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

// Predictor forecasts upcoming service demand for proactive deployment
// (TestbedOptions.Predictor).
type Predictor = core.Predictor

// NewEWMAPredictor returns the built-in inter-arrival predictor for
// proactive deployment.
func NewEWMAPredictor(alpha float64) *core.EWMAPredictor { return core.NewEWMAPredictor(alpha) }
