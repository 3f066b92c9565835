// Package srsteer is the stateless steering backend (steer.Steering): an
// SRv6-style mechanism in the spirit of Royer et al., "Using SRv6 to access
// Edge Applications in 5G Networks". Instead of installing per-flow rewrite
// rules on the switch, the controller keeps the client→instance binding
// itself (next to the FlowMemory, where it already lives) and returns a
// segment-list-style encapsulation decision to the ingress point: packets
// entering the switch are encapsulated in place — the original service
// address is preserved as the inner destination while the outer destination
// carries the encoded segment endpoint — and forwarded on the normal routed
// path. Intermediate switches forward on the encoded path with zero per-flow
// state; no flow-mod ever crosses the control channel for a client flow, so
// rule-table occupancy and flow-mod traffic stay O(1) in the client count.
//
// The binding table is controller state, bounded exactly like the cookie map
// it replaces: bindings idle-expire on the virtual clock and notify the
// controller (steer.Params.OnExpired) so client-location records are
// garbage-collected the same way an openflow flow-removed message would.
package srsteer

import (
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/steer"
)

// fwdKey mirrors the forward rewrite rule's match: client source, service
// VIP and port, with the client's source port wildcarded.
type fwdKey struct {
	client simnet.Addr
	vip    simnet.Addr
	port   int
}

// revKey mirrors the reverse rewrite rule's match: instance source address
// and port toward a specific client, destination port wildcarded.
type revKey struct {
	instAddr simnet.Addr
	instPort int
	client   simnet.Addr
}

// binding is one controller-side steering decision.
type binding struct {
	f     steer.Flow
	ep    steer.Endpoint
	cloud bool // forward unmodified toward the cloud (no encap)
	// idle is the one clock of both directions: either refreshes it, and the
	// binding leaves fwd and rev together when it runs out.
	idle sim.Idle
}

// SRv6 implements steer.Steering with zero per-flow switch state.
type SRv6 struct {
	p       steer.Params
	k       *sim.Kernel
	fwd     map[fwdKey]*binding
	rev     map[revKey]*binding
	high    int
	ingress func(sw *openflow.Switch, inPort int, pkt *simnet.Packet) bool

	// Obs handles (nil without Params.Counters; nil handles no-op).
	gEntries         *obs.Gauge
	cEncaps, cDecaps *obs.Counter
}

// New creates the stateless backend. All wiring arrives via Bind.
func New() *SRv6 {
	b := &SRv6{
		fwd: make(map[fwdKey]*binding),
		rev: make(map[revKey]*binding),
	}
	// The hook closure is built once so AttachSwitch allocates nothing per
	// switch and every switch shares one binding table.
	b.ingress = b.steerPacket
	return b
}

// Name implements steer.Steering.
func (b *SRv6) Name() string { return "srv6" }

// Stateless implements steer.Steering: every attached switch shares the one
// binding table, so a decision is valid wherever the client shows up next —
// a handover needs no packet-in and no install at the new switch.
func (b *SRv6) Stateless() bool { return true }

// Bind implements steer.Steering.
func (b *SRv6) Bind(p steer.Params) {
	b.p = p
	b.k = p.Kernel
	if reg := p.Counters; reg != nil {
		b.gEntries = reg.Gauge("steer_entries")
		b.cEncaps = reg.Counter("steer_encap_total")
		b.cDecaps = reg.Counter("steer_decap_total")
	}
}

// AttachSwitch implements steer.Steering: the ingress hook is the entire
// per-switch footprint.
func (b *SRv6) AttachSwitch(sw *openflow.Switch) {
	sw.SetIngressSteer(b.ingress)
}

// steerPacket is the per-packet ingress hook: one map probe per direction,
// in-place encap/decap, normal forwarding. Zero allocations steady-state —
// pinned by TestAllocsSRv6Ingress.
func (b *SRv6) steerPacket(sw *openflow.Switch, inPort int, pkt *simnet.Packet) bool {
	if e, ok := b.fwd[fwdKey{pkt.SrcIP, pkt.DstIP, pkt.DstPort}]; ok {
		e.idle.Touch(b.k.Now())
		if e.cloud {
			// Cloud-forwarded flow: pass through unmodified (the openflow
			// backend's pass-through rule), suppressing further packet-ins.
			sw.ForwardNormal(pkt)
			return true
		}
		// SRv6-style encap in place: the service address becomes the inner
		// destination, the outer destination is the segment endpoint.
		b.cEncaps.Inc()
		pkt.Encap = true
		pkt.InnerDstIP = pkt.DstIP
		pkt.InnerDstPort = pkt.DstPort
		pkt.DstIP = e.ep.Addr
		pkt.DstPort = e.ep.Port
		sw.ForwardNormal(pkt)
		return true
	}
	if e, ok := b.rev[revKey{pkt.SrcIP, pkt.SrcPort, pkt.DstIP}]; ok {
		e.idle.Touch(b.k.Now())
		// Decap of the return direction: the client must see the service
		// address it dialed.
		b.cDecaps.Inc()
		pkt.Encap = false
		pkt.InnerDstIP = ""
		pkt.InnerDstPort = 0
		pkt.SrcIP = e.f.VIP
		pkt.SrcPort = e.f.Port
		sw.ForwardNormal(pkt)
		return true
	}
	return false // fall through to the table (punt rule → dispatch)
}

// install replaces any binding for f with a fresh one.
func (b *SRv6) install(f steer.Flow, ep steer.Endpoint, cloud bool) {
	fk := fwdKey{f.Client, f.VIP, f.Port}
	if old, ok := b.fwd[fk]; ok {
		b.drop(old)
	}
	e := &binding{f: f, ep: ep, cloud: cloud}
	b.fwd[fk] = e
	if !cloud {
		b.rev[revKey{ep.Addr, ep.Port, f.Client}] = e
	}
	if len(b.fwd) > b.high {
		b.high = len(b.fwd)
	}
	b.gEntries.Set(int64(len(b.fwd)))
	if b.p.IdleTimeout > 0 {
		e.idle.Start(b.k, b.p.IdleTimeout, func() {
			b.drop(e)
			if b.p.OnExpired != nil {
				b.p.OnExpired(e.f)
			}
		})
	}
}

// drop removes a binding from both maps (only if it is still the current
// entry for its keys).
func (b *SRv6) drop(e *binding) {
	e.idle.Stop()
	fk := fwdKey{e.f.Client, e.f.VIP, e.f.Port}
	if cur, ok := b.fwd[fk]; ok && cur == e {
		delete(b.fwd, fk)
	}
	if !e.cloud {
		rk := revKey{e.ep.Addr, e.ep.Port, e.f.Client}
		if cur, ok := b.rev[rk]; ok && cur == e {
			delete(b.rev, rk)
		}
	}
	b.gEntries.Set(int64(len(b.fwd)))
}

// InstallRedirect implements steer.Steering.
func (b *SRv6) InstallRedirect(sw *openflow.Switch, f steer.Flow, ep steer.Endpoint) {
	b.install(f, ep, false)
}

// InstallCloudForward implements steer.Steering.
func (b *SRv6) InstallCloudForward(sw *openflow.Switch, f steer.Flow) {
	b.install(f, steer.Endpoint{}, true)
}

// ReAnchor implements steer.Steering: bindings are switch-agnostic (every
// attached switch shares the table), so a handover is just a refresh — the
// stateless backend's whole point. No switch state exists to move.
func (b *SRv6) ReAnchor(oldSw, newSw *openflow.Switch, f steer.Flow, ep steer.Endpoint) {
	b.install(f, ep, false)
}

// FlowRemoved implements steer.Steering. The backend installs no rules, so
// no notification can concern it.
func (b *SRv6) FlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) (steer.Flow, bool) {
	return steer.Flow{}, false
}

// Entries implements steer.Steering.
func (b *SRv6) Entries() int { return len(b.fwd) }

// Stats implements steer.Steering: zero flow-mods, zero switch rules — the
// headline numbers of the comparison.
func (b *SRv6) Stats() steer.TableStats {
	return steer.TableStats{
		Entries:          len(b.fwd),
		EntriesHighWater: b.high,
		FlowMods:         0,
		SwitchRules:      0,
	}
}
