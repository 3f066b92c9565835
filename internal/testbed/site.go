package testbed

import (
	"fmt"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// Site is one edge site of fig. 8: its network, the OVS switch, the Edge
// Gateway Server with the controller and the containerd runtime, the Docker
// engine, and the client hosts (optionally behind gNB cells). The
// single-site Testbed is one Site on its own kernel; the sharded scenario is
// one Site per region. Both embed it, so everything a request or a handover
// touches is defined once.
type Site struct {
	K *sim.Kernel
	// Domain is the site's address octet (10.<d>.…, VIPs 203.<d>.113.…) and,
	// in the sharded scenario, its shard domain. The single site is domain 0.
	Domain  int
	Net     *simnet.Network
	Switch  *openflow.Switch
	EGS     *simnet.Host
	Clients []*simnet.Host
	Ctrl    *core.Controller
	Docker  *docker.Engine // nil when the site runs without a Docker cluster
	Runtime *container.Runtime

	// GNBs are the access switches of the mobility topology (empty in the
	// flat topology); gnbOf is each client's current cell.
	GNBs  []*openflow.Switch
	gnbOf []int

	// Trace / Counters are the site's obs handles (nil = off at zero cost).
	Trace    *obs.Tracer
	Counters *obs.Registry
	// FaultPlan is the materialized fault plan (nil when faults are off).
	FaultPlan *faults.Plan

	name    string // "" for the single site, "r<i>" for region i
	cloud   *cloud
	nextVIP int
}

// cloud is the far side of a site's uplink: the router behind which the
// registries and every service's cloud origin live — on the site's own
// network in the single-site testbed, in the backbone domain (shared by all
// sites) in the sharded scenario.
type cloud struct {
	net    *simnet.Network
	router *simnet.Router
}

func (c *cloud) attach(h *simnet.Host, link simnet.LinkConfig) {
	hp, rp := c.net.Connect(h, c.router, link)
	h.SetUplink(hp)
	c.router.AddRoute(h.IP(), rp)
}

// siteConfig is what New and NewRegions tell newSite.
type siteConfig struct {
	k        *sim.Kernel
	domain   int
	name     string
	clients  int
	gnbs     int
	docker   bool
	steering string
	ctrl     core.Config // Trace, Counters and Steering are filled in by newSite
	trace    *obs.Tracer
	counters *obs.Registry
	faults   *faults.Spec
	// uplink wires switch port 2 toward the cloud side, which is where the
	// two scenarios differ (a local router vs a cross-shard fabric link), and
	// returns that side plus the resolver image pulls use.
	uplink func(s *Site) (*cloud, *registry.Resolver)
	// clusters, when set, adds clusters beyond the Docker engine; it runs
	// after the controller exists and before the clients are attached.
	clusters func(s *Site, resolver *registry.Resolver)
}

// Site switch ports: 1 is the EGS, uplinkPort the way to the cloud side;
// client i keeps port clientPortBase+i on the site switch or on whichever
// gNB it is attached to.
const (
	uplinkPort     = 2
	clientPortBase = 100
)

// newSite assembles one site. Every structural decision — names, addresses,
// port numbers, construction order — depends only on c.
func newSite(c siteConfig) *Site {
	s := &Site{
		K: c.k, Domain: c.domain, name: c.name, nextVIP: 10,
		Trace: c.trace, Counters: c.counters,
	}
	s.Net = simnet.NewNetwork(c.k)
	s.Net.SetObs(c.counters)
	s.Switch = openflow.NewSwitch(s.Net, s.label("/")+"ovs", openflow.DefaultConfig())

	egs := s.label("/") + "egs"
	s.EGS = simnet.NewHost(s.Net, egs, simnet.Addr(fmt.Sprintf("10.%d.0.10", s.Domain)))
	s.EGS.ProcDelay = egsProcDelay
	s.Switch.AttachHost(s.EGS, 1, simnet.LinkConfig{
		Name: egs, Latency: egsLinkLatency, Bandwidth: egsLinkBandwidth,
	})

	var resolver *registry.Resolver
	s.cloud, resolver = c.uplink(s)

	// The containerd runtime on the EGS, shared by every cluster type there.
	images := registry.NewClient(s.EGS, resolver, registry.DefaultClientConfig())
	s.Runtime = container.NewRuntime(s.EGS, images, RuntimeConfig())

	c.ctrl.Trace = c.trace
	c.ctrl.Counters = c.counters
	c.ctrl.Steering = NewSteering(c.steering)
	s.Ctrl = core.New(c.k, s.EGS, c.ctrl)
	if c.gnbs > 0 {
		s.buildGNBs(c.gnbs)
	} else {
		s.Ctrl.AddSwitch(s.Switch)
	}

	if c.docker {
		name := "egs-docker"
		if s.name != "" {
			name = s.name + "-docker"
		}
		s.Docker = docker.New(name, s.Runtime, catalog.Behaviors(), DockerConfig())
		s.Docker.SetObs(c.counters)
		s.Ctrl.AddCluster(s.Docker, KindDocker)
	}
	if c.clusters != nil {
		c.clusters(s, resolver)
	}

	for i := 0; i < c.clients; i++ {
		s.attachClient()
	}

	// Fault plan: attached last so every cluster and link exists. For a nil
	// or disabled spec this leaves every injector nil (the zero-cost path).
	// Injector decisions key on the cluster names, so sites fail
	// independently but reproducibly.
	if c.faults != nil && c.faults.Enabled() {
		s.FaultPlan = faults.NewPlan(*c.faults)
		s.FaultPlan.SetObs(c.counters)
		for _, cl := range s.Ctrl.Clusters() {
			if f, ok := cl.(interface{ SetFaults(*faults.Injector) }); ok {
				f.SetFaults(s.FaultPlan.For(cl.Name()))
			}
		}
		impair(s.Net, c.faults)
	}
	return s
}

// impair applies a fault spec's link faults to every link of a network.
func impair(n *simnet.Network, f *faults.Spec) {
	if f.LinkLoss > 0 || f.LinkExtraLatency > 0 {
		n.ImpairAll(f.LinkLoss, f.LinkExtraLatency)
	}
}

// label is the site's name followed by sep, or nothing at the single site:
// "ovs" there is "r3/ovs" in region 3.
func (s *Site) label(sep string) string {
	if s.name == "" {
		return ""
	}
	return s.name + sep
}

// attachClient adds the next RPi client under its stable port number: behind
// its initial gNB cell in the mobility topology (with the site switch routed
// toward that gNB), directly on the site switch otherwise.
func (s *Site) attachClient() {
	i := len(s.Clients)
	cli := simnet.NewHost(s.Net, fmt.Sprintf("%srpi-%02d", s.label("/"), i),
		simnet.Addr(fmt.Sprintf("10.%d.1.%d", s.Domain, i+1)))
	cli.ProcDelay = rpiProcDelay
	if len(s.GNBs) > 0 {
		// Initial cell i % cells: the workload generator's StartCell.
		g := i % len(s.GNBs)
		s.GNBs[g].AttachHost(cli, clientPortBase+i, clientLink(cli))
		s.Switch.SetRoute(cli.IP(), gnbSitePortBase+g)
		s.gnbOf = append(s.gnbOf, g)
	} else {
		s.Switch.AttachHost(cli, clientPortBase+i, clientLink(cli))
	}
	s.Clients = append(s.Clients, cli)
}

func clientLink(cli *simnet.Host) simnet.LinkConfig {
	return simnet.LinkConfig{Name: cli.Name(), Latency: rpiLinkLatency, Bandwidth: rpiLinkBandwidth}
}

// RegisterService registers a custom edge service from a YAML definition:
// it allocates a cloud VIP, registers with the controller, and creates the
// cloud origin (with a generic fast handler unless a container image selects
// a catalog behavior).
func (s *Site) RegisterService(yamlSrc, domain string) (*spec.Annotated, spec.Registration, error) {
	reg := spec.Registration{
		Domain: domain,
		VIP:    simnet.Addr(fmt.Sprintf("203.%d.113.%d", s.Domain, s.nextVIP)),
		Port:   80,
	}
	s.nextVIP++
	a, err := s.Ctrl.RegisterService(yamlSrc, reg)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	s.createCloudOrigin(a, reg)
	return a, reg, nil
}

// RegisterCatalogService registers one of the paper's Table I services: it
// allocates a cloud VIP, registers the service with the site's controller,
// and creates the cloud origin host that really serves that address (the
// "perceived cloud" of fig. 1 must exist for forwarding without an edge
// instance). VIPs and domains are per site, so the same catalog key can be
// registered independently at every region; there the origin lives in the
// backbone domain, so a cloud forward genuinely crosses the shard boundary.
func (s *Site) RegisterCatalogService(key string) (*spec.Annotated, spec.Registration, error) {
	svc, err := catalog.Get(key)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	return s.RegisterService(svc.YAML, fmt.Sprintf("%s-%s%d.example.com", sanitize(key), s.label("-"), s.nextVIP))
}

func sanitize(key string) string {
	out := make([]rune, 0, len(key))
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// createCloudOrigin stands up the real cloud instance of a registered
// service behind the cloud router.
func (s *Site) createCloudOrigin(a *spec.Annotated, reg spec.Registration) {
	origin := simnet.NewHost(s.cloud.net, "cloud-"+a.UniqueName, reg.VIP)
	s.cloud.attach(origin, simnet.LinkConfig{
		Name: "cloud-" + a.UniqueName, Latency: 2 * time.Millisecond, Bandwidth: 1 * simnet.Gbps,
	})
	behaviors := catalog.Behaviors()
	var b cluster.Behavior
	for _, cs := range a.Containers {
		cb := behaviors.Behavior(cs.Image)
		if cs.ContainerPort > 0 || b.RespSize == 0 {
			b = cb
		}
	}
	origin.ServeHTTPAsync(reg.Port, b.AsyncHandler())
}

// Request issues one measured request (timecurl-style) from client index
// cli to the registered service, with the catalog request shape for key.
// timeout 0 waits forever (on-demand with waiting).
func (s *Site) Request(p *sim.Proc, cli int, reg spec.Registration, key string, timeout time.Duration) (*simnet.HTTPResult, error) {
	return s.Clients[cli].HTTPGet(p, reg.VIP, reg.Port, catalog.Request(key), timeout)
}

// RequestAsync issues the same measured request as Request without blocking
// a process: done runs inside the completion event, and the result it is
// handed is borrowed, valid only until done returns (copy it to keep it).
// This is the replay engine's hot path. It must run on the site's kernel.
func (s *Site) RequestAsync(cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error)) {
	s.Clients[cli].HTTPGetAsync(reg.VIP, reg.Port, catalog.Request(key), timeout, done)
}
