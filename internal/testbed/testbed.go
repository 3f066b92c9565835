// Package testbed assembles the simulated counterpart of the paper's
// Carinthian Computing Continuum (C³) evaluation setup (fig. 8):
//
//   - the Edge Gateway Server (EGS) running the SDN controller, the virtual
//     OVS switch, a Docker engine, and a single-node Kubernetes cluster —
//     both cluster types sharing one containerd runtime, as on the real
//     EGS;
//   - twenty Raspberry Pi client hosts behind the switch (1 Gbps links,
//     slower per-packet processing than the EGS);
//   - a cloud uplink behind which the real (cloud) service origins, Docker
//     Hub, and the Google Container Registry live;
//   - an optional private container registry inside the edge network
//     (fig. 13's alternative pull source).
//
// All latency/bandwidth constants are calibrated so the simulated medians
// land in the paper's reported ranges; see DESIGN.md §7 and the catalog
// package for the rationale.
package testbed

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/faults"
	"transparentedge/internal/kube"
	"transparentedge/internal/obs"
	"transparentedge/internal/registry"
	"transparentedge/internal/serverless"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/srsteer"
	"transparentedge/internal/steer"
)

// Cluster kind tags used with core.Controller.AddCluster.
const (
	KindDocker     = "docker"
	KindKubernetes = "kubernetes"
	KindServerless = "serverless"
)

// Options selects what to build.
type Options struct {
	Seed       int64
	NumClients int // default 20 (the paper's client RPis)
	// EnableDocker / EnableKube select the edge cluster types (the paper
	// evaluates each separately; enable both for the §VII hybrid).
	EnableDocker bool
	EnableKube   bool
	// EnableServerless adds the WASM-based serverless platform on the EGS
	// (the §VIII future-work side-by-side operation).
	EnableServerless bool
	// UsePrivateRegistry routes image pulls to the in-network registry
	// instead of Docker Hub / GCR (fig. 13's comparison).
	UsePrivateRegistry bool
	// EnableFarEdge adds a second, farther-away Docker edge cluster
	// ("far-docker"): the paper's fig. 3 scenario, where the initial
	// request is served by a running instance in an edge further away
	// while the optimal edge deploys in the background. Edge clusters are
	// usually organized hierarchically, with the farther cluster more
	// likely to have the service cached or running.
	EnableFarEdge bool
	// Scheduler overrides the Global Scheduler (default: wait-nearest, the
	// policy under which the paper's deployment-time figures are
	// measured). Use core.NewScheduler to load one by name.
	Scheduler core.GlobalScheduler
	// AutoScaleDown enables idle-instance scale-down via the FlowMemory.
	AutoScaleDown bool
	// SwitchIdleTimeout / MemoryIdleTimeout override controller defaults
	// when non-zero.
	SwitchIdleTimeout time.Duration
	MemoryIdleTimeout time.Duration
	// LocalSchedulerName is annotated into service definitions (§V).
	LocalSchedulerName string
	// ProbeInterval overrides the controller's readiness-probe interval
	// when non-zero.
	ProbeInterval time.Duration
	// ProbeMaxWait overrides the controller's readiness-probe deadline when
	// non-zero (negative waits forever, as before the deadline existed).
	ProbeMaxWait time.Duration
	// DeployRetries sets the controller's per-phase deployment retries when
	// non-zero.
	DeployRetries int
	// Faults, when non-nil and enabled, injects deterministic failures into
	// the clusters and (via LinkLoss/LinkExtraLatency) the network. A nil or
	// all-zero spec leaves every fault hook nil — zero cost, bit-identical
	// traces.
	Faults *faults.Spec
	// Predictor, when set, enables proactive deployment: the controller
	// pre-deploys services the predictor expects to be requested within
	// PredictHorizon, checking every PredictInterval.
	Predictor       core.Predictor
	PredictInterval time.Duration
	PredictHorizon  time.Duration
	// Events receives the controller's structured events.
	Events func(obs.Event)
	// Trace, when set, records per-request span trees across the whole
	// stack (dispatch pipeline, deploy phases, probing). Nil = off at zero
	// cost.
	Trace *obs.Tracer
	// Counters, when set, registers the controller's, network's, clusters'
	// and fault plan's counters in the registry. Nil = off at zero cost.
	Counters *obs.Registry
	// SteerBackend selects the steering backend by name: "" or "openflow"
	// builds the paper's per-flow rule installer, "srv6" (alias "srsteer")
	// the stateless ingress-encapsulation backend. See NewSteering.
	SteerBackend string
	// GNBs inserts that many gNB access switches between the clients and
	// the site switch — the radio attachment points the mobility workload
	// hands clients over between (Handover). Client i starts on gNB
	// i % GNBs; the site switch becomes a transit switch (no punt rules)
	// and each gNB punts to the controller. 0 keeps the flat topology,
	// byte-identical to before the option existed.
	GNBs int
}

// NewSteering maps a backend name to a fresh steer.Steering: "" and
// "openflow" select the rule-install backend (nil is returned for "", so
// core.New applies its own default), "srv6"/"srsteer" the stateless one.
// Unknown names panic — backend selection is experiment configuration, and
// silently running the wrong backend would invalidate a comparison.
func NewSteering(name string) steer.Steering {
	switch name {
	case "":
		return nil
	case "openflow":
		return steer.NewOpenFlow()
	case "srv6", "srsteer":
		return srsteer.New()
	default:
		panic(fmt.Sprintf("testbed: unknown steering backend %q", name))
	}
}

// Testbed is the assembled single-site simulation: one Site (see there for
// the switch, EGS, controller, Docker engine, runtime and clients) plus what
// only the fig. 8 testbed has.
type Testbed struct {
	*Site
	Kube *kube.Cluster

	// Serverless is the optional WASM platform on the EGS (§VIII).
	Serverless *serverless.Platform

	// FarDocker is the optional farther-away edge cluster (EnableFarEdge)
	// with its own host and runtime.
	FarDocker  *docker.Engine
	FarHost    *simnet.Host
	FarRuntime *container.Runtime

	Hub     *registry.Server
	GCR     *registry.Server
	Private *registry.Server
}

// Close ends the processes the testbed leaves parked (the Kubernetes model
// alone keeps twenty: work-queue workers, scheduler, node lifecycle, kubelet
// loops), which otherwise pin their goroutines and the whole testbed for the
// life of the program. Call it when done with a testbed; results, counters and
// stats stay readable, but the kernel must not run again.
func (tb *Testbed) Close() { tb.K.Close() }

// Calibrated constants (see package comment).
const (
	egsLinkLatency   = 50 * time.Microsecond
	egsLinkBandwidth = 10 * simnet.Gbps
	rpiLinkLatency   = 150 * time.Microsecond
	rpiLinkBandwidth = 1 * simnet.Gbps
	rpiProcDelay     = 200 * time.Microsecond
	egsProcDelay     = 20 * time.Microsecond

	cloudUplinkLatency   = 8 * time.Millisecond
	cloudUplinkBandwidth = 1 * simnet.Gbps
	hubLinkLatency       = 9 * time.Millisecond
	hubLinkBandwidth     = 400 * simnet.Mbps
	gcrLinkLatency       = 7 * time.Millisecond
	gcrLinkBandwidth     = 500 * simnet.Mbps
	privLinkLatency      = 200 * time.Microsecond
	privLinkBandwidth    = 900 * simnet.Mbps

	hubManifestLatency  = 200 * time.Millisecond
	hubBlobLatency      = 120 * time.Millisecond
	gcrManifestLatency  = 160 * time.Millisecond
	gcrBlobLatency      = 100 * time.Millisecond
	privManifestLatency = 8 * time.Millisecond
	privBlobLatency     = 4 * time.Millisecond
)

// DockerConfig returns the calibrated Docker engine configuration.
func DockerConfig() docker.Config {
	return docker.Config{APILatency: 25 * time.Millisecond, PortRangeStart: 32000}
}

// RuntimeConfig returns the calibrated containerd configuration for the EGS.
func RuntimeConfig() container.RuntimeConfig {
	return container.RuntimeConfig{
		CreateDelay: 45 * time.Millisecond,
		StartDelay:  380 * time.Millisecond,
		StopDelay:   60 * time.Millisecond,
		RemoveDelay: 40 * time.Millisecond,
	}
}

// KubeConfig returns the calibrated single-node Kubernetes configuration.
func KubeConfig() kube.Config {
	cfg := kube.DefaultConfig()
	cfg.Scheduler.BindingDelay = 400 * time.Millisecond
	cfg.Kubelet.SandboxDelay = 1350 * time.Millisecond
	return cfg
}

// New assembles a testbed.
func New(opts Options) *Testbed {
	if opts.NumClients <= 0 {
		opts.NumClients = 20
	}
	tb := &Testbed{}

	ctrlCfg := core.DefaultConfig()
	ctrlCfg.Scheduler = opts.Scheduler
	if ctrlCfg.Scheduler == nil {
		ctrlCfg.Scheduler = core.WaitNearestScheduler{}
	}
	ctrlCfg.AutoScaleDown = opts.AutoScaleDown
	ctrlCfg.LocalSchedulerName = opts.LocalSchedulerName
	ctrlCfg.Events = opts.Events
	if opts.SwitchIdleTimeout > 0 {
		ctrlCfg.SwitchIdleTimeout = opts.SwitchIdleTimeout
	}
	if opts.MemoryIdleTimeout > 0 {
		ctrlCfg.MemoryIdleTimeout = opts.MemoryIdleTimeout
	}
	if opts.ProbeInterval > 0 {
		ctrlCfg.ProbeInterval = opts.ProbeInterval
	}
	if opts.ProbeMaxWait != 0 {
		ctrlCfg.ProbeMaxWait = opts.ProbeMaxWait
	}
	if opts.DeployRetries > 0 {
		ctrlCfg.DeployRetries = opts.DeployRetries
	}
	// Distance model: clusters on the EGS are nearest (0); the far edge
	// ranks behind them (1); Docker vs Kubernetes on the same EGS tie and
	// fall back to registration order.
	ctrlCfg.Distance = func(client simnet.Addr, cl cluster.Cluster) int {
		if strings.HasPrefix(cl.Name(), "far-") {
			return 1
		}
		return 0
	}

	tb.Site = newSite(siteConfig{
		k:        sim.New(opts.Seed),
		clients:  opts.NumClients,
		gnbs:     opts.GNBs,
		docker:   opts.EnableDocker,
		steering: opts.SteerBackend,
		ctrl:     ctrlCfg,
		trace:    opts.Trace,
		counters: opts.Counters,
		faults:   opts.Faults,
		uplink: func(s *Site) (*cloud, *registry.Resolver) {
			return tb.buildCloud(s, opts.UsePrivateRegistry)
		},
		clusters: func(s *Site, resolver *registry.Resolver) {
			tb.addClusters(s, resolver, opts)
		},
	})
	return tb
}

// buildCloud wires the single site's cloud side on the site's own network:
// the cloud router behind switch port 2, Docker Hub and GCR behind it, and
// the private registry on switch port 3.
func (tb *Testbed) buildCloud(s *Site, usePrivate bool) (*cloud, *registry.Resolver) {
	n := s.Net
	c := &cloud{net: n, router: simnet.NewRouter(n, "cloud-gw")}
	swPort, crPort := n.Connect(s.Switch, c.router, simnet.LinkConfig{
		Name: "uplink", Latency: cloudUplinkLatency, Bandwidth: cloudUplinkBandwidth,
	})
	s.Switch.AddPort(uplinkPort, swPort)
	s.Switch.SetDefaultRoute(uplinkPort)
	c.router.SetDefault(crPort) // back toward the edge network

	var resolver *registry.Resolver
	tb.Hub, tb.GCR, resolver = c.publicRegistries()
	privHost := simnet.NewHost(n, "private-registry", "10.0.0.50")
	s.Switch.AttachHost(privHost, 3, simnet.LinkConfig{
		Name: "private", Latency: privLinkLatency, Bandwidth: privLinkBandwidth,
	})
	tb.Private = registry.NewServer(privHost, registry.ServerConfig{
		ManifestLatency: privManifestLatency, BlobLatency: privBlobLatency,
	})
	for _, img := range catalog.Images() {
		// Published everywhere; the resolver decides where pulls go.
		tb.Private.Add(img)
	}
	if usePrivate {
		resolver = registry.NewResolver()
		resolver.AddPrefix("", privHost.IP())
	}
	return c, resolver
}

// publicRegistries stands up Docker Hub and GCR behind the cloud router,
// publishes the catalog images where the paper pulls them from, and returns
// the resolver that routes pulls there.
func (c *cloud) publicRegistries() (hub, gcr *registry.Server, resolver *registry.Resolver) {
	hubHost := simnet.NewHost(c.net, "docker-hub", "198.51.100.10")
	c.attach(hubHost, simnet.LinkConfig{Name: "hub", Latency: hubLinkLatency, Bandwidth: hubLinkBandwidth})
	hub = registry.NewServer(hubHost, registry.ServerConfig{
		ManifestLatency: hubManifestLatency, BlobLatency: hubBlobLatency,
	})
	gcrHost := simnet.NewHost(c.net, "gcr", "198.51.100.20")
	c.attach(gcrHost, simnet.LinkConfig{Name: "gcr", Latency: gcrLinkLatency, Bandwidth: gcrLinkBandwidth})
	gcr = registry.NewServer(gcrHost, registry.ServerConfig{
		ManifestLatency: gcrManifestLatency, BlobLatency: gcrBlobLatency,
	})
	for _, img := range catalog.Images() {
		if img.Ref == catalog.ImgResNet {
			gcr.Add(img)
		} else {
			hub.Add(img)
		}
	}
	resolver = registry.NewResolver()
	resolver.AddPrefix("", hubHost.IP())
	resolver.AddPrefix("gcr.io/", gcrHost.IP())
	return hub, gcr, resolver
}

// addClusters adds the cluster types only the single-site testbed has —
// Kubernetes, serverless, the far edge — and starts proactive deployment.
func (tb *Testbed) addClusters(s *Site, resolver *registry.Resolver, opts Options) {
	behaviors := catalog.Behaviors()
	if opts.EnableKube {
		kubeCfg := KubeConfig()
		if opts.LocalSchedulerName != "" {
			// Run the configured Local Scheduler (§IV-B) alongside the
			// default scheduler so annotated pods get bound.
			kubeCfg.LocalSched = &kube.SchedulerConfig{
				Name:         opts.LocalSchedulerName,
				BindingDelay: 300 * time.Millisecond,
			}
		}
		kc := kube.New("egs-k8s", s.K, kubeCfg)
		kc.SetObs(opts.Counters)
		kc.AddNode("egs", s.Runtime, behaviors, kube.DefaultCapacity())
		kc.Start()
		tb.Kube = kc
		s.Ctrl.AddCluster(tb.Kube, KindKubernetes)
	}

	if opts.EnableServerless {
		// The platform keeps its own module store: WASM modules are a
		// different artifact type than container images.
		moduleStore := registry.NewClient(s.EGS, resolver, registry.DefaultClientConfig())
		tb.Serverless = serverless.New("egs-serverless", s.EGS, moduleStore, behaviors, serverless.DefaultConfig())
		tb.Serverless.SetObs(opts.Counters)
		s.Ctrl.AddCluster(tb.Serverless, KindServerless)
	}

	if opts.EnableFarEdge {
		tb.FarHost = simnet.NewHost(s.Net, "far-edge", "10.0.2.10")
		tb.FarHost.ProcDelay = egsProcDelay
		s.Switch.AttachHost(tb.FarHost, 4, simnet.LinkConfig{
			Name: "far-edge", Latency: 2 * time.Millisecond, Bandwidth: 1 * simnet.Gbps,
		})
		farImages := registry.NewClient(tb.FarHost, resolver, registry.DefaultClientConfig())
		tb.FarRuntime = container.NewRuntime(tb.FarHost, farImages, RuntimeConfig())
		tb.FarDocker = docker.New("far-docker", tb.FarRuntime, behaviors, DockerConfig())
		tb.FarDocker.SetObs(opts.Counters)
		s.Ctrl.AddCluster(tb.FarDocker, KindDocker)
	}

	if opts.Predictor != nil {
		interval := opts.PredictInterval
		if interval <= 0 {
			interval = 5 * time.Second
		}
		horizon := opts.PredictHorizon
		if horizon <= 0 {
			horizon = 15 * time.Second
		}
		s.Ctrl.StartProactive(opts.Predictor, interval, horizon)
	}
}

// ClusterByKind returns the testbed cluster of the given kind (nil if not
// enabled).
func (tb *Testbed) ClusterByKind(kind string) cluster.Cluster {
	switch kind {
	case KindDocker:
		if tb.Docker == nil {
			return nil
		}
		return tb.Docker
	case KindKubernetes:
		if tb.Kube == nil {
			return nil
		}
		return tb.Kube
	case KindServerless:
		if tb.Serverless == nil {
			return nil
		}
		return tb.Serverless
	}
	return nil
}
