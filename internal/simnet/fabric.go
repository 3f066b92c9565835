package simnet

import (
	"fmt"

	"transparentedge/internal/sim"
)

// Fabric stitches the per-domain Networks of a sharded scenario together
// with cross-shard links. Each cross-shard link is modelled as two half
// links, one per network: the sending half performs loss, fair-share
// serialization, and the propagation delay exactly like a local link, but
// the delivery lands on the peer network's node via a timestamped
// inter-shard message (sim.ShardGroup.Send). Because every cross-shard
// link's latency is at least the group's lookahead, a delivery time is
// always at or beyond the current window horizon — the receiving kernel can
// never observe work in its executed past.
//
// Packet ownership across the boundary: the sending network frees its
// packet when the message ships (value copy inside the message), and the
// receiving network allocates a fresh packet from its own pool at delivery
// time. Each pool therefore stays single-kernel and allocation-free in
// steady state, with no cross-shard sharing of packet memory.
type Fabric struct {
	group *sim.ShardGroup
}

// NewFabric returns a fabric delivering over the given shard group.
func NewFabric(group *sim.ShardGroup) *Fabric {
	return &Fabric{group: group}
}

// Group returns the underlying shard group.
func (f *Fabric) Group() *sim.ShardGroup { return f.group }

// remoteHalf is the shipping side of one half of a cross-shard link.
type remoteHalf struct {
	group     *sim.ShardGroup
	srcDomain int
	dstDomain int
	dst       *Port    // receiving port in the destination network
	dstNet    *Network // destination network (owns the delivery-side pool)
}

// Connect creates a cross-shard link between node a in domain da (network
// na) and node b in domain db (network nb), returning a's port and b's
// port. The link behaves like a local Connect link — same LinkConfig
// semantics, same fair-share serialization, deterministic loss — except
// that each direction's propagation crosses the shard boundary. cfg.Latency
// must be at least the shard group's lookahead; Connect panics otherwise,
// because such a link would let one shard schedule inside another's current
// window.
func (f *Fabric) Connect(na *Network, a Node, da int, nb *Network, b Node, db int, cfg LinkConfig) (*Port, *Port) {
	if cfg.Latency < f.group.Lookahead() {
		panic(fmt.Sprintf("simnet: cross-shard link %q latency %v below shard lookahead %v",
			cfg.Name, cfg.Latency, f.group.Lookahead()))
	}
	if na.K != f.group.Kernel(da) || nb.K != f.group.Kernel(db) {
		panic(fmt.Sprintf("simnet: cross-shard link %q endpoints not on their domains' kernels", cfg.Name))
	}
	la := &Link{net: na, cfg: cfg}
	lb := &Link{net: nb, cfg: cfg}
	// Each half owns only its transmit direction (and that direction's
	// completion event, on its own kernel); seeds mirror Connect's so the
	// drop pattern of a direction depends only on the link name and which
	// end sends.
	pa, pb := &la.a, &lb.a
	*pa = Port{node: a, link: la, dir: &la.ab, peer: pb}
	*pb = Port{node: b, link: lb, dir: &lb.ab, peer: pa}
	la.ab.init(pa, 1)
	lb.ab.init(pb, 2)
	la.remote = &remoteHalf{group: f.group, srcDomain: da, dstDomain: db, dst: pb, dstNet: nb}
	lb.remote = &remoteHalf{group: f.group, srcDomain: db, dstDomain: da, dst: pa, dstNet: na}
	na.links = append(na.links, la)
	nb.links = append(nb.links, lb)
	return pa, pb
}

// shipRemote crosses the shard boundary: copy the packet by value into the
// message, free it to the sending pool, and deliver a fresh packet from the
// receiving pool at time at on the destination kernel.
func (l *Link) shipRemote(pkt *Packet, at sim.Time) {
	r := l.remote
	cp := *pkt
	l.net.FreePacket(pkt)
	r.group.Send(r.srcDomain, r.dstDomain, at, func() {
		np := r.dstNet.NewPacket()
		*np = cp
		dst := r.dst
		if dst.link.net.PktTrace != nil {
			dst.link.net.PktTrace(dst.node.Name(), np)
		}
		dst.node.HandlePacket(dst, np)
	})
}
