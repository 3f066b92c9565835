package testbed

import (
	"fmt"
	"time"

	"transparentedge/internal/openflow"
	"transparentedge/internal/simnet"
)

// gNB topology constants. With GNBs > 0, clients sit behind gNB access
// switches instead of directly on the site switch: each gNB carries the punt
// rules and steering installs (the client's attachment point), and the site
// switch degrades to a transit switch between the gNBs and the uplinks. Port
// numbering: on a gNB, port 1 is the x-haul toward the site switch and
// clients occupy clientPortBase+; on the site switch, gNB g hangs off port
// gnbSitePortBase+g (clear of the EGS/cloud/registry/far-edge ports).
const (
	gnbUplinkPort    = 1
	gnbSitePortBase  = 10
	xhaulLinkLatency = 300 * time.Microsecond
	xhaulLinkWidth   = 10 * simnet.Gbps
)

// buildGNBs inserts n access switches between the site switch and its
// future clients: the site switch is registered as a transit switch (no
// punt rules — a cloud-bound flow must not re-punt mid-path) and each gNB
// becomes a punting, steering-capable controller switch.
func (s *Site) buildGNBs(n int) {
	s.Ctrl.AddTransitSwitch(s.Switch)
	s.GNBs = make([]*openflow.Switch, n)
	for g := range s.GNBs {
		name := fmt.Sprintf("%sgnb-%d", s.label("/"), g)
		gnb := openflow.NewSwitch(s.Net, name, openflow.DefaultConfig())
		up, down := s.Net.Connect(gnb, s.Switch, simnet.LinkConfig{
			Name: name + "/xhaul", Latency: xhaulLinkLatency, Bandwidth: xhaulLinkWidth,
		})
		gnb.AddPort(gnbUplinkPort, up)
		gnb.SetDefaultRoute(gnbUplinkPort)
		s.Switch.AddPort(gnbSitePortBase+g, down)
		s.Ctrl.AddSwitch(gnb)
		s.GNBs[g] = gnb
	}
}

// Handover moves client cli (modulo the site's client count, the replay
// engine's client mapping) to gNB cell to: the old radio link is severed
// (in-flight packets on it drop at their own events — simnet.Host.Detach
// semantics), the client re-attaches under its stable port number (only it
// ever uses that number, so ping-pong handovers reuse it freely), both
// switches' routes are rewired, and the controller is notified
// (core.NoteHandover) so steering state follows the client. Strictly
// intra-site, so in the sharded scenario the rewiring touches one shard
// domain only. Runs in kernel context on the site's kernel; a no-op when the
// client is already in the target cell. Panics on a site without gNBs, a
// negative client or a cell outside [0, len(GNBs)) — the replay engine
// validates its schedule against exactly these before staging anything.
func (s *Site) Handover(cli, to int) {
	if len(s.GNBs) == 0 {
		panic("testbed: Handover on a site built without GNBs")
	}
	if cli < 0 || to < 0 || to >= len(s.GNBs) {
		panic(fmt.Sprintf("testbed: Handover(client %d, cell %d) outside %d cells", cli, to, len(s.GNBs)))
	}
	cli %= len(s.Clients)
	from := s.gnbOf[cli]
	if from == to {
		return
	}
	host, port := s.Clients[cli], clientPortBase+cli
	s.GNBs[from].DetachPort(port)
	_, np := host.MoveTo(s.GNBs[to], clientLink(host))
	s.GNBs[to].AddPort(port, np)
	s.GNBs[to].SetRoute(host.IP(), port)
	s.Switch.SetRoute(host.IP(), gnbSitePortBase+to)
	s.Ctrl.NoteHandover(host.IP(), s.GNBs[to], port)
	s.gnbOf[cli] = to
}
