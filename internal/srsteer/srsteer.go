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
// VIP and port, with the client's source port wildcarded. Addresses are keyed
// by their numbers in the switches' network, which packets carry.
type fwdKey struct {
	client, vip uint32
	port        int
}

// revKey mirrors the reverse rewrite rule's match: instance source address
// and port toward a specific client, destination port wildcarded.
type revKey struct {
	inst     uint32
	instPort int
	client   uint32
}

// binding is one controller-side steering decision.
type binding struct {
	f     steer.Flow
	ep    steer.Endpoint
	cloud bool // forward unmodified toward the cloud (no encap)
	// fk and rk are the binding's keys in fwd and rev (rk unused for a
	// cloud binding); fk.vip and rk.inst are the numbers an encap or decap
	// sets with the address it rewrites.
	fk fwdKey
	rk revKey
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
	ingress func(sw *openflow.Switch, pkt *simnet.Packet) bool
	// encaps and decaps count the packets the ingress hook rewrote.
	encaps, decaps uint64
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

// Stateless implements steer.Steering: every attached switch shares the one
// binding table, so a decision is valid wherever the client shows up next —
// a handover needs no packet-in and no install at the new switch.
func (b *SRv6) Stateless() bool { return true }

// Bind implements steer.Steering.
func (b *SRv6) Bind(p steer.Params) {
	b.p = p
	b.k = p.Kernel
	if reg := p.Counters; reg != nil {
		reg.Register(func(add func(obs.Sample)) {
			add(obs.Sample{Name: "steer_entries", Kind: "gauge", Value: float64(len(b.fwd))})
			add(obs.Sample{Name: "steer_entries_max", Kind: "gauge", Value: float64(b.high)})
			add(obs.Sample{Name: "steer_encap_total", Kind: "counter", Value: float64(b.encaps)})
			add(obs.Sample{Name: "steer_decap_total", Kind: "counter", Value: float64(b.decaps)})
		})
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
func (b *SRv6) steerPacket(sw *openflow.Switch, pkt *simnet.Packet) bool {
	if e, ok := b.fwd[fwdKey{pkt.SrcID, pkt.DstID, pkt.DstPort}]; ok {
		e.idle.Touch(b.k.Now())
		if e.cloud {
			// Cloud-forwarded flow: pass through unmodified (the openflow
			// backend's pass-through rule), suppressing further packet-ins.
			sw.ForwardNormal(pkt)
			return true
		}
		// SRv6-style encap in place: the destination becomes the segment
		// endpoint; the binding remembers the service address for the decap.
		b.encaps++
		pkt.DstIP, pkt.DstID = e.ep.Addr, e.rk.inst
		pkt.DstPort = e.ep.Port
		sw.ForwardNormal(pkt)
		return true
	}
	if e, ok := b.rev[revKey{pkt.SrcID, pkt.SrcPort, pkt.DstID}]; ok {
		e.idle.Touch(b.k.Now())
		// Decap of the return direction: the client must see the service
		// address it dialed.
		b.decaps++
		pkt.SrcIP, pkt.SrcID = e.f.VIP, e.fk.vip
		pkt.SrcPort = e.f.Port
		sw.ForwardNormal(pkt)
		return true
	}
	return false // fall through to the table (punt rule → dispatch)
}

// install replaces any binding for f with a fresh one; sw's network numbers
// the addresses.
func (b *SRv6) install(sw *openflow.Switch, f steer.Flow, ep steer.Endpoint, cloud bool) {
	n := sw.Network()
	fk := fwdKey{n.Number(f.Client), n.Number(f.VIP), f.Port}
	if old, ok := b.fwd[fk]; ok {
		b.drop(old)
	}
	e := &binding{f: f, ep: ep, cloud: cloud, fk: fk}
	b.fwd[fk] = e
	if !cloud {
		e.rk = revKey{n.Number(ep.Addr), ep.Port, fk.client}
		b.rev[e.rk] = e
	}
	if len(b.fwd) > b.high {
		b.high = len(b.fwd)
	}
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
	if cur, ok := b.fwd[e.fk]; ok && cur == e {
		delete(b.fwd, e.fk)
	}
	if !e.cloud {
		if cur, ok := b.rev[e.rk]; ok && cur == e {
			delete(b.rev, e.rk)
		}
	}
}

// InstallRedirect implements steer.Steering.
func (b *SRv6) InstallRedirect(sw *openflow.Switch, f steer.Flow, ep steer.Endpoint) {
	b.install(sw, f, ep, false)
}

// InstallCloudForward implements steer.Steering.
func (b *SRv6) InstallCloudForward(sw *openflow.Switch, f steer.Flow) {
	b.install(sw, f, steer.Endpoint{}, true)
}

// ReAnchor implements steer.Steering: bindings are switch-agnostic (every
// attached switch shares the table), so a handover is just a refresh — the
// stateless backend's whole point. No switch state exists to move.
func (b *SRv6) ReAnchor(oldSw, newSw *openflow.Switch, f steer.Flow, ep steer.Endpoint) {
	b.install(newSw, f, ep, false)
}

// FlowRemoved implements steer.Steering. The backend installs no rules, so
// no notification can concern it.
func (b *SRv6) FlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) (steer.Flow, bool) {
	return steer.Flow{}, false
}

// Entries implements steer.Steering.
func (b *SRv6) Entries() int { return len(b.fwd) }

// Stats implements steer.Steering: zero flow-mods — the headline number of
// the comparison.
func (b *SRv6) Stats() steer.TableStats {
	return steer.TableStats{EntriesHighWater: b.high}
}
