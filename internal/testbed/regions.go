package testbed

import (
	"fmt"

	"transparentedge/internal/core"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// DefaultRegions is the number of edge sites in the sharded scenario. The
// domain topology is fixed by the scenario, never by the shard count — that
// is what makes results bit-identical at every -shards value.
const DefaultRegions = 8

// regionUplinkLatency is the one-way latency of each edge site's backbone
// uplink — the minimum inter-domain link latency, and therefore the shard
// group's conservative lookahead. It matches the single-testbed cloud
// uplink calibration.
const regionUplinkLatency = cloudUplinkLatency

// RegionOptions configures a sharded multi-region scenario.
type RegionOptions struct {
	Seed int64
	// Regions is the number of edge sites (default DefaultRegions). Each
	// site is one shard domain; the cloud backbone is one more.
	Regions int
	// Shards is the number of kernels the domains are partitioned onto
	// (default 1, the serial degenerate case). Clamped to Regions+1.
	Shards int
	// ClientsPerRegion is the number of RPi clients per site (default 20).
	ClientsPerRegion int
	// Traced / Counted enable per-region obs handles (one tracer/registry
	// per site, merged deterministically by the caller in region order).
	Traced  bool
	Counted bool
	// Faults, when non-nil and enabled, builds one deterministic fault
	// plan per region (injector decisions key on the per-region cluster
	// names, so sites fail independently but reproducibly).
	Faults *faults.Spec
	// SteerBackend selects each region's steering backend by name (see
	// NewSteering); every region gets its own fresh backend instance.
	SteerBackend string
	// GNBs inserts that many gNB access switches per region between the
	// site's clients and its switch (Options.GNBs, tiled): handovers are
	// strictly intra-region, so the topology change never crosses a shard
	// boundary. 0 keeps the flat per-region topology.
	GNBs int
}

// Regions is the assembled sharded scenario: R edge sites plus a cloud
// backbone domain holding the router, the public registries, and every
// service's cloud origin. Sites reach the cloud (image pulls, forwarded
// first requests) over cross-shard fabric links.
type Regions struct {
	Group  *sim.ShardGroup
	Fabric *simnet.Fabric
	// Sites are the edge sites in region order; region i lives on shard
	// domain i+1 (the cloud backbone is domain 0).
	Sites []*Site

	CloudNet *simnet.Network
	Router   *simnet.Router
}

// NewRegions assembles the sharded scenario. Every structural decision —
// addressing, link configs, registration order — depends only on opts, not
// on the shard count, so runs differ across Shards values only in which
// kernel executes which domain.
func NewRegions(opts RegionOptions) *Regions {
	if opts.Regions <= 0 {
		opts.Regions = DefaultRegions
	}
	if opts.ClientsPerRegion <= 0 {
		opts.ClientsPerRegion = 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	domains := opts.Regions + 1
	group := sim.NewShardGroup(domains, opts.Shards, opts.Seed, regionUplinkLatency)
	rs := &Regions{Group: group, Fabric: simnet.NewFabric(group)}

	// Cloud backbone (domain 0): router, Docker Hub, GCR.
	rs.CloudNet = simnet.NewNetwork(group.Kernel(0))
	rs.Router = simnet.NewRouter(rs.CloudNet, "backbone")
	backbone := &cloud{net: rs.CloudNet, router: rs.Router}
	resolver := backbone.publicRegistries()

	ctrlCfg := core.Config{Scheduler: core.WaitNearestScheduler{}}
	for i := 0; i < opts.Regions; i++ {
		c := siteConfig{
			k:        group.Kernel(i + 1),
			domain:   i + 1,
			name:     fmt.Sprintf("r%d", i),
			clients:  opts.ClientsPerRegion,
			gnbs:     opts.GNBs,
			docker:   true,
			steering: opts.SteerBackend,
			ctrl:     ctrlCfg,
			faults:   opts.Faults,
		}
		if opts.Traced {
			c.trace = obs.NewTracer(0)
		}
		if opts.Counted {
			c.counters = obs.NewRegistry()
		}
		// Backbone uplink: the site's only cross-shard link. The switch's
		// default route sends everything non-local (registry pulls, cloud
		// forwards) over it.
		var rtPort *simnet.Port
		c.uplink = func(s *Site) (*cloud, *registry.Resolver) {
			var swPort *simnet.Port
			swPort, rtPort = rs.Fabric.Connect(s.Net, s.Switch, s.Domain, rs.CloudNet, rs.Router, 0, simnet.LinkConfig{
				Name: s.label("/") + "uplink", Latency: regionUplinkLatency, Bandwidth: cloudUplinkBandwidth,
			})
			s.Switch.AddPort(uplinkPort, swPort)
			s.Switch.SetDefaultRoute(uplinkPort)
			rs.Router.AddRoute(s.EGS.IP(), rtPort)
			return backbone, resolver
		}
		site := newSite(c)
		for _, cli := range site.Clients {
			rs.Router.AddRoute(cli.IP(), rtPort)
		}
		rs.Sites = append(rs.Sites, site)
	}
	return rs
}

// Close ends the processes the scenario leaves parked on any of its kernels
// (see Testbed.Close); the group must not run again.
func (rs *Regions) Close() { rs.Group.Close() }
