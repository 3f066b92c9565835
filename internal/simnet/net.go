// Package simnet emulates the paper's testbed network (fig. 8) on the sim
// virtual clock: nodes connected by full-duplex links with propagation
// latency and fair-shared bandwidth, message-level packets with TCP-like
// connection semantics (SYN / SYN-ACK / RST / DATA), and port listeners.
//
// The model is message-level, not MTU-packet-level: one application message
// is one Packet whose serialization time on each link is size/rate, with the
// rate fair-shared among concurrent transfers in the same link direction.
// This captures propagation, serialization, and contention — the quantities
// the paper's timings are composed of — while keeping multi-hundred-MiB
// image pulls cheap to simulate. TCP slow start and retransmission are not
// modelled; connection setup costs one RTT (SYN / SYN-ACK), which matches
// the curl time_total measurement methodology of the paper.
//
// A hop costs the kernel one event when the packet has its link direction to
// itself from first byte to last — its delivery, armed when it is sent — and
// two when it shares it: the direction's completion event, then its own for
// the propagation delay (see direction; DESIGN.md §20). The stages on either
// side of a hop ride that event too: a quiet host arms it when the packet
// enters its stack (Host.ProcDelay), and a link into a StagedNode (an OpenFlow
// switch) arms it for the end of the receiver's pipeline stage, so a packet
// that meets nothing costs one event per hop, stages included.
//
// A host demultiplexes by port pair: its connection table is keyed by the
// local and remote port, and the few connections that share a pair (a
// server's peers dialing from the same ephemeral port) are told apart by
// address.
//
// # Packet ownership
//
// Packets are recycled through a per-Network free list (NewPacket /
// FreePacket), so the datapath has explicit ownership rules (DESIGN.md §10):
//
//   - handing a packet to Port.Send transfers ownership to the network; the
//     sender must not touch it afterwards;
//   - on delivery, ownership passes to the receiving Node.HandlePacket.
//     Forwarding nodes (Switch, Router) pass ownership downstream — they may
//     rewrite headers in place because they are the sole owner (rewrites
//     need no copy; Clone was retired with this rule);
//   - terminal consumers return packets to the pool: hosts free control
//     segments (SYN/SYN-ACK/RST/FIN) after handling them, and DATA segments
//     are freed as their payload is handed to the connection's handler;
//   - a node that holds a packet across events (the SDN controller holding
//     a punted SYN while a deployment runs) owns it until it re-injects it
//     (TableOut/PacketOut) or drops it;
//   - dropped packets (link down, no route) are left to the garbage
//     collector: drops are off the hot path and never recycled, which keeps
//     the rules simple and use-after-free impossible on error paths;
//   - the one exception is a *severed* link (Host.Detach / Host.MoveTo): the
//     handover path is deliberately exercised at scale, so packets caught on
//     a dying link are dropped deterministically at the instant their
//     serialization or propagation would have ended, counted (Link.Dropped,
//     Network.DetachDrops), and returned to the pool — a mobility workload
//     must not leak a packet per handover.
package simnet

import (
	"fmt"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
)

// Addr is a network address (IPv4 dotted quad by convention).
type Addr string

// Bytes is a payload size in bytes.
type Bytes int64

// Common sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
)

// BitsPerSec is a link rate. Zero means infinite bandwidth (latency only).
type BitsPerSec int64

// Common rates.
const (
	Mbps BitsPerSec = 1_000_000
	Gbps BitsPerSec = 1_000_000_000
)

// PacketKind distinguishes the TCP-ish segment types the simulation needs.
type PacketKind uint8

// Packet kinds.
const (
	KindSYN PacketKind = iota + 1
	KindSYNACK
	KindRST
	KindDATA
	KindFIN
)

func (k PacketKind) String() string {
	switch k {
	case KindSYN:
		return "SYN"
	case KindSYNACK:
		return "SYN-ACK"
	case KindRST:
		return "RST"
	case KindDATA:
		return "DATA"
	case KindFIN:
		return "FIN"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet is a message-level network packet. Header fields are mutable: the
// owner of a packet (see the package comment's ownership rules) may rewrite
// them in flight, as an OpenFlow switch does.
type Packet struct {
	Kind    PacketKind
	SrcIP   Addr
	DstIP   Addr
	SrcPort int
	DstPort int
	Size    Bytes // total size on the wire
	Payload any   // application payload, opaque to the network
	ID      uint64
	// Seq orders DATA segments within a connection (TCP never delivers
	// out of order, but fair-shared links can complete a small later
	// transfer before a large earlier one; the receiver re-sequences).
	Seq uint64
	// Encap marks an SRv6-style outer header applied in place at a steering
	// ingress point: DstIP/DstPort carry the encoded segment endpoint (the
	// instance) while InnerDstIP/InnerDstPort preserve the original service
	// address. Only the packet's current owner may set or clear these (the
	// same ownership rules as any header rewrite); FreePacket resets them
	// with the rest of the struct, so recycled packets never leak an old
	// encapsulation.
	Encap        bool
	InnerDstIP   Addr
	InnerDstPort int
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d (%dB)", p.Kind, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Size)
}

// minWireSize is the modelled on-wire size of control segments (SYN etc.).
const minWireSize Bytes = 64

// Node is anything attachable to the network that can receive packets.
type Node interface {
	// Name returns a diagnostic name.
	Name() string
	// HandlePacket processes a packet arriving on port in. It runs in
	// kernel (event) context and must not block. The packet is owned by the
	// node from this point on (forward it, free it, or hold it).
	HandlePacket(in *Port, pkt *Packet)
}

// A StagedNode processes what it receives a fixed pipeline stage after the
// packet arrives. A link delivers to it by calling HandlePacket at the end of
// that stage, from the packet's one delivery event; a packet whose link is
// severed while it is still propagating dies at its arrival instant, one that
// has arrived is processed. The stage is read when the link is connected.
type StagedNode interface {
	Node
	PipelineDelay() time.Duration
}

// Network owns the kernel, nodes, and links of one emulated topology.
type Network struct {
	K       *sim.Kernel
	nextPkt uint64
	nodes   []Node
	// PktTrace, when set, is called for every packet a link delivers, with
	// the instant the packet reached the node: for a StagedNode that is its
	// pipeline stage earlier than the call.
	PktTrace func(at sim.Time, where string, pkt *Packet)

	pktPool  []*Packet   // recycled packets (NewPacket / FreePacket)
	xferPool []*transfer // recycled link transfers with their events
	connPool []*Conn     // recycled connections (newConn / freeConn)
	callPool []*httpCall // recycled HTTPGetAsync calls with their deadline events

	// DetachDrops counts packets dropped because their link was severed by a
	// host detach/handover (these drops free to the pool, unlike down
	// drops — see the package comment).
	DetachDrops uint64

	// Obs counter handles (nil without SetObs; nil *obs.Counter no-ops).
	// gets - puts - drops bounds the packets still alive outside the free
	// list, so a growing residue over a steady-state run flags a leak.
	// Severed-link drops are counted separately (cDetachDrops) because they
	// return to the pool and must not skew that balance.
	cPoolGets, cPoolPuts, cDrops, cDetachDrops *obs.Counter
	// How the link model's lone-transfer shortcut fared (see direction):
	// transfers that crossed their link on one event, and solos a second
	// arrival or a Detach turned back into cohort members.
	cSoloDone, cSoloMaterialised *obs.Counter
}

// SetObs registers the network's packet-pool, drop and solo-transfer counters
// in the registry. A nil registry leaves the handles nil, keeping the
// datapath's zero-allocation hot path untouched.
func (n *Network) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.cPoolGets = reg.Counter("simnet_packet_pool_gets_total")
	n.cPoolPuts = reg.Counter("simnet_packet_pool_puts_total")
	n.cDrops = reg.Counter("simnet_packet_drops_total")
	n.cDetachDrops = reg.Counter("simnet_detach_drops_total")
	n.cSoloDone = reg.Counter("simnet_solo_transfers_total")
	n.cSoloMaterialised = reg.Counter("simnet_solo_materialised_total")
}

// NewNetwork returns an empty network bound to kernel k.
func NewNetwork(k *sim.Kernel) *Network { return &Network{K: k} }

// Register records a node for diagnostics (attachment happens via Connect).
func (n *Network) Register(node Node) { n.nodes = append(n.nodes, node) }

// NextPacketID returns a fresh unique packet ID.
func (n *Network) NextPacketID() uint64 {
	n.nextPkt++
	return n.nextPkt
}

// NewPacket returns a zeroed packet from the network's free list (or a fresh
// one). The caller owns it until it is handed to Port.Send.
func (n *Network) NewPacket() *Packet {
	n.cPoolGets.Inc()
	if ln := len(n.pktPool); ln > 0 {
		p := n.pktPool[ln-1]
		n.pktPool[ln-1] = nil
		n.pktPool = n.pktPool[:ln-1]
		return p
	}
	return &Packet{}
}

// FreePacket returns a packet to the free list. Only the packet's current
// owner may free it; the packet must not be referenced afterwards.
func (n *Network) FreePacket(p *Packet) {
	if p == nil {
		return
	}
	n.cPoolPuts.Inc()
	*p = Packet{}
	n.pktPool = append(n.pktPool, p)
}

// LinkConfig describes a full-duplex link.
type LinkConfig struct {
	Name      string
	Latency   time.Duration // one-way propagation delay
	Bandwidth BitsPerSec    // per-direction capacity; 0 = infinite
}

// Port is one end of a link, attached to a node.
type Port struct {
	node Node
	link *Link
	dir  *direction // transmit direction for this port
	peer *Port
}

// Send transmits pkt out of this port toward the peer node, transferring
// ownership of pkt to the network. Delivery happens after serialization
// (fair-shared bandwidth) plus propagation latency.
func (p *Port) Send(pkt *Packet) {
	if pkt.Size < minWireSize {
		pkt.Size = minWireSize
	}
	p.dir.transmit(pkt)
}

// Link is a full-duplex point-to-point link with independent per-direction
// fair-shared capacity.
type Link struct {
	net  *Network
	cfg  LinkConfig
	a, b Port      // the two ends, stored inline: one allocation per link
	ab   direction // a transmits into ab, b into ba
	ba   direction
	down bool
	// severed marks a link permanently cut by Host.Detach/MoveTo. Unlike
	// down (a transient failure whose drops are left to the GC), a severed
	// link deterministically drops every in-flight packet when its current
	// stage (serialization, propagation) would have ended and returns it to
	// the pool; nothing is ever delivered from either port again.
	severed bool
	// Dropped counts packets lost to a down or severed link.
	Dropped uint64
	// remote, when non-nil, marks this link as the local half of a
	// cross-shard link (see Fabric): serialization happens here,
	// but instead of local delivery the packet ships to another domain's
	// network as a timestamped inter-shard message.
	remote *remoteHalf
}

// SetDown takes the link down (packets are silently dropped) or brings it
// back up — the simulation's cable pull for failure injection. A packet still
// in its sender's stack stage meets the new state when it leaves the stack.
func (l *Link) SetDown(down bool) {
	l.ab.settleFused()
	l.ba.settleFused()
	l.down = down
}

// Connect creates a link between nodes a and b and returns the two ports
// (the first attached to a, the second to b).
func (n *Network) Connect(a, b Node, cfg LinkConfig) (*Port, *Port) {
	l := &Link{net: n, cfg: cfg}
	pa, pb := &l.a, &l.b
	*pa = Port{node: a, link: l, dir: &l.ab, peer: pb}
	*pb = Port{node: b, link: l, dir: &l.ba, peer: pa}
	l.ab.init(pa)
	l.ba.init(pb)
	return pa, pb
}

// deliverToPeer ends a packet's trip out of port p, which reached the peer
// node at at: trace hook, then hand the packet to the peer node.
func (p *Port) deliverToPeer(delivered *Packet, at sim.Time) {
	peer := p.peer
	if peer == nil {
		return
	}
	if p.link.net.PktTrace != nil {
		p.link.net.PktTrace(at, peer.node.Name(), delivered)
	}
	peer.node.HandlePacket(peer, delivered)
}

// transfer is one packet on its way from a host stack or a port to the next
// node. While it serializes it carries only arithmetic (bytes left, current
// share, the instant it would complete at that share). Alone on its direction
// — the direction's solo — its own persistent re-armable event, finish, is
// armed once for the delivery, serialization and propagation together (and
// the sender's stack stage before them when the sender was quiet, the
// receiver's pipeline stage after them when it has one); as a member of a
// cohort it waits for the direction's event to fire for whichever member is
// due first, and finish covers only what follows serialization. A packet in
// its sender's stack that could not fuse has no direction yet, and finish is
// armed for the end of the stage. Transfers are recycled through the
// network's free list, so the steady-state per-packet datapath performs zero
// heap allocations.
type transfer struct {
	dir       *direction // nil while the packet waits out its sender's stack stage
	remaining float64    // bytes left to serialize
	rate      float64    // current bytes/sec share
	updated   sim.Time   // last settled; for a packet in a stack, the stage's end
	due       sim.Time   // serialization completes here at the current share
	finish    *sim.Event // persistent; armed for delivery (solo), what follows serialization (cohort), or the stack's end
	pkt       *Packet
	host      *Host    // the sending host while the packet is in (or fused with) its stack stage
	arrive    sim.Time // the packet reaches the receiver here
	// cut marks a delivery Host.Detach moved back to the arrival instant: the
	// packet was still propagating toward a staged receiver and dies there.
	cut bool
	// prev and next link the transfers in flight toward a staged receiver
	// (direction.flight), the ones Detach may have to cut.
	prev, next *transfer
}

// fire is the transfer's event callback: the packet has left its sender's
// stack, or has reached the receiver (and, for a staged one, its pipeline
// stage has elapsed).
func (t *transfer) fire() {
	d := t.dir
	if d == nil {
		t.host.unstack(t)
		return
	}
	if d.fused == t {
		d.fused = nil
		d.soloDone()
	} else if d.solo == t {
		d.soloDone()
	}
	d.unflight(t)
	if d.link.severed && (t.cut || d.stage == 0) {
		// The link was cut while this packet was propagating: it dies here,
		// deterministically, at the time it was due to arrive. No delivery
		// from a dead port. A packet that had reached a staged receiver
		// before the cut is still processed.
		d.dropSevered(t)
		return
	}
	pkt, at := t.pkt, t.arrive
	d.link.net.putTransfer(t)
	d.port.deliverToPeer(pkt, at)
}

// getTransfer takes a transfer from the free list (or builds one with its
// persistent event) and binds it to direction d.
func (n *Network) getTransfer(d *direction) *transfer {
	if ln := len(n.xferPool); ln > 0 {
		t := n.xferPool[ln-1]
		n.xferPool[ln-1] = nil
		n.xferPool = n.xferPool[:ln-1]
		t.dir = d
		return t
	}
	t := &transfer{dir: d}
	t.finish = n.K.NewEvent(t.fire)
	return t
}

// putTransfer returns a transfer (with its persistent event) to the free
// list once its packet has been handed on or dropped.
func (n *Network) putTransfer(t *transfer) {
	t.pkt, t.dir, t.host, t.cut = nil, nil, nil, false
	n.xferPool = append(n.xferPool, t)
}

// direction models fair-share (equal split) bandwidth for one direction of a
// link: each active transfer gets capacity/n. On every membership change the
// remaining bytes are settled at the old rate and every member's completion
// instant (due) recomputed at the new one. Active transfers are kept in an
// ordered slice (arrival order).
//
// A transfer that enters an empty direction of a local link is not put in
// active: it is the direction's solo, with the full rate, and its one event is
// its own delivery at due + latency. Whoever next needs the direction's state
// (transmit, Host.Detach, ActiveTransfers) first resolves the
// solo: past its due it has left the wire and is forgotten; before it, it is
// materialised — delivery cancelled, appended to active — and from there on
// it is an ordinary member (DESIGN.md §20).
//
// A packet that enters a quiet host's stack is fused: it becomes the
// direction's next solo, due to start serializing when the stage ends, and its
// one event is armed at once for its delivery. Whoever reaches the direction
// before the stage ends (a send, Detach, SetDown) un-fuses it: its event is
// re-timed to the end of the stage, keeping its sequence number, and from
// there on it is an ordinary staged packet (Host.stack).
//
// Invariant: a direction with a solo or a fused transfer has an empty cohort
// and arms nothing of its own; a non-empty cohort has exactly one armed kernel
// event, done, set for head — the member with the least (due, arrival order).
// Only the head can complete before the next membership change, and that
// change recomputes every due anyway, so no other member needs an event of its
// own.
type direction struct {
	link   *Link
	port   *Port     // the end that transmits into this direction
	solo   *transfer // lone transfer riding its own delivery event; active is empty
	fused  *transfer // next solo, still in (or just out of) its sender's stack; solo is gone by its start
	active []*transfer
	head   *transfer     // least (due, arrival order) of active; nil when empty
	done   *sim.Event    // persistent; armed at head.due (allocated at Connect)
	stage  time.Duration // the receiver's pipeline stage (StagedNode), 0 for other nodes
	flight *transfer     // with a stage: the transfers whose delivery is armed
}

// init binds d to its transmitting port, reads the receiver's pipeline stage
// and allocates the direction's completion event.
func (d *direction) init(p *Port) {
	d.link = p.link
	d.port = p
	if s, ok := p.peer.node.(StagedNode); ok {
		d.stage = s.PipelineDelay()
	}
	d.done = d.link.net.K.NewEvent(d.completeHead)
}

func (d *direction) capacityBps() float64 {
	return float64(d.link.cfg.Bandwidth) / 8.0 // bytes per second
}

func (d *direction) transmit(pkt *Packet) {
	t := d.link.net.getTransfer(d)
	t.pkt = pkt
	d.send(t)
}

// send puts t's packet on the wire now, or drops it.
func (d *direction) send(t *transfer) {
	net, k := d.link.net, d.link.net.K
	if d.link.severed {
		// A send into a severed link (e.g. the peer switch still routing at
		// the old port) drops immediately, back to the pool.
		d.countSevered()
		net.FreePacket(t.pkt)
		net.putTransfer(t)
		return
	}
	if d.link.down {
		d.link.Dropped++
		net.cDrops.Inc()
		net.putTransfer(t) // the packet is not recycled (see package comment)
		return
	}
	lat := d.link.cfg.Latency
	if d.link.cfg.Bandwidth <= 0 {
		if d.link.remote != nil {
			// Infinite bandwidth on a cross-shard link: ship immediately
			// with the propagation delay as the delivery offset.
			pkt := t.pkt
			net.putTransfer(t)
			d.link.shipRemote(pkt, k.Now()+lat)
			return
		}
		// Infinite bandwidth: propagation only.
		d.propagate(t, k.Now()+lat)
		return
	}
	t.remaining = float64(t.pkt.Size)
	t.updated = k.Now()
	d.materialise()
	if len(d.active) == 0 && d.link.remote == nil {
		// Alone on the wire: what rebalance computes for a cohort of one, and
		// the delivery armed where done would have been. A cross-shard half
		// stays a cohort because it ships at due, which a later arrival moves.
		t.rate = d.capacityBps()
		t.due = t.updated + time.Duration(t.remaining/t.rate*float64(time.Second))
		d.solo = t
		d.propagate(t, t.due+lat)
		return
	}
	d.active = append(d.active, t)
	d.rebalance()
}

// fuse makes t, a packet entering its sender's stack now, the direction's next
// solo if nothing can reach it first: the link is up, unsevered, local and has
// bandwidth, and the direction will be idle when the stage ends at t.updated —
// no cohort, and a solo (if any) due by then. (A packet whose stage ends at a
// solo's due finds it off the wire: it draws its sequence number after the
// solo's.) The delivery is armed now, for what the solo transmit would arm at
// the stage's end, and fuse reports true; the caller has already settled d.
func (d *direction) fuse(t *transfer) bool {
	l := d.link
	busy := len(d.active) > 0 || d.solo != nil && d.solo.due > t.updated
	if l.down || l.severed || l.remote != nil || l.cfg.Bandwidth <= 0 || busy {
		return false
	}
	t.dir = d
	t.remaining = float64(t.pkt.Size)
	t.rate = d.capacityBps()
	t.due = t.updated + time.Duration(t.remaining/t.rate*float64(time.Second))
	d.fused = t
	d.propagate(t, t.due+l.cfg.Latency)
	return true
}

// inStack reports whether t is still in its sender's stack stage. At the
// nanosecond the stage ends, it is exactly if the code now running precedes
// the stage's end, whose sequence number t's event carries.
func (d *direction) inStack(t *transfer) bool {
	k := d.link.net.K
	return k.Now() < t.updated || k.Now() == t.updated && k.Precedes(t.finish)
}

// settleFused resolves the fused transfer before the direction's state is
// read or changed: one still in its sender's stack is un-fused — its event
// re-timed to the end of the stage, keeping its sequence number, so it leaves
// the stack where and in the order an unfused packet would — and one past it
// becomes the solo, its predecessor having left the wire by then.
func (d *direction) settleFused() {
	t := d.fused
	if t == nil {
		return
	}
	d.fused = nil
	if d.inStack(t) {
		d.unflight(t)
		t.dir = nil
		t.host.staged++
		d.link.net.K.Retime(t.finish, t.updated)
		return
	}
	if d.solo != nil {
		d.soloDone()
	}
	d.solo = t
}

// propagate arms t's delivery for a packet that reaches the receiver at
// arrive: then, or at the end of the receiver's pipeline stage.
func (d *direction) propagate(t *transfer, arrive sim.Time) {
	t.arrive = arrive
	if d.stage > 0 {
		t.prev, t.next = nil, d.flight
		if d.flight != nil {
			d.flight.prev = t
		}
		d.flight = t
	}
	d.link.net.K.Schedule(t.finish, arrive+d.stage)
}

// unflight takes t out of the flight list of a staged direction.
func (d *direction) unflight(t *transfer) {
	if d.stage == 0 {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		d.flight = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
}

// cut re-times every delivery still propagating toward the staged receiver
// to its arrival instant, where fire drops it. A packet that has arrived — at
// this very nanosecond too, if its arrival is ordered before the running code
// — stays armed for the end of the pipeline stage.
func (d *direction) cut() {
	k := d.link.net.K
	for t := d.flight; t != nil; t = t.next {
		if k.Now() < t.arrive || k.Now() == t.arrive && k.Precedes(t.finish) {
			t.cut = true
			k.Retime(t.finish, t.arrive)
		}
	}
}

// soloOnWire reports whether solo t is still serializing. At the very
// nanosecond it is due, the answer is what the cohort code's would be: done,
// armed where finish was, fires after the running event exactly if that event
// precedes the arming (a sender that met the last sub-nanosecond residue of
// the solo shares the wire with it; one that came after does not).
func (d *direction) soloOnWire(t *transfer) bool {
	k := d.link.net.K
	return k.Now() < t.due || k.Now() == t.due && k.Precedes(t.finish)
}

// soloDone forgets the solo: its last byte has left the wire (or it has just
// been delivered), so the direction is empty and the transfer's own event is
// all that is left of it.
func (d *direction) soloDone() {
	d.solo = nil
	d.link.net.cSoloDone.Inc()
}

// materialise resolves the direction's fused transfer and solo before its
// state is read or changed. A solo still serializing becomes the cohort's only
// member, its delivery cancelled, with the fields rebalance would have left it
// — the caller arms done (send does by rebalancing) — and materialise reports
// true; one that has left the wire is forgotten.
func (d *direction) materialise() bool {
	d.settleFused()
	t := d.solo
	if t == nil {
		return false
	}
	if !d.soloOnWire(t) {
		d.soloDone()
		return false
	}
	d.solo = nil
	t.finish.Cancel()
	d.unflight(t)
	d.active = append(d.active, t)
	d.link.net.cSoloMaterialised.Inc()
	return true
}

// sever cuts the link for good (Host.Detach): in both directions a packet
// still in its sender's stack is un-fused, a solo still serializing goes back
// to the cohort with done armed for it, so that it dies at the end of its
// serialization as a cohort member does, and deliveries still propagating
// toward a staged receiver are cut back to their arrival.
func (l *Link) sever() {
	for _, d := range [...]*direction{&l.ab, &l.ba} {
		if d.materialise() {
			d.arm(d.active[0])
		}
	}
	l.severed = true
	l.ab.cut()
	l.ba.cut()
}

// rebalance settles every active transfer's remaining bytes to now at its old
// rate, recomputes equal shares and completion instants, and arms the
// direction's event for the earliest one. Ties on due go to the earlier
// arrival: that is the order every recorded fingerprint was produced with
// (DESIGN.md §20).
func (d *direction) rebalance() {
	n := len(d.active)
	if n == 0 {
		d.arm(nil)
		return
	}
	now := d.link.net.K.Now()
	share := d.capacityBps() / float64(n)
	var head *transfer
	for _, t := range d.active {
		elapsed := (now - t.updated).Seconds()
		t.remaining -= t.rate * elapsed
		if t.remaining < 0 {
			t.remaining = 0
		}
		t.updated = now
		t.rate = share
		t.due = now + time.Duration(t.remaining/share*float64(time.Second))
		if head == nil || t.due < head.due {
			head = t
		}
	}
	d.arm(head)
}

// arm makes head the transfer the direction's event completes next; nil (an
// empty direction) leaves the event unarmed.
func (d *direction) arm(head *transfer) {
	d.head = head
	if head != nil {
		d.link.net.K.Schedule(d.done, head.due)
	}
}

// remove splices t out of the active cohort, keeping arrival order.
func (d *direction) remove(t *transfer) {
	for i, a := range d.active {
		if a == t {
			last := len(d.active) - 1
			copy(d.active[i:], d.active[i+1:])
			d.active[last] = nil
			d.active = d.active[:last]
			return
		}
	}
}

// completeHead is the direction's event callback: the head transfer has
// serialized its last byte. It leaves the cohort, the rest are rebalanced,
// and the packet enters the propagation stage.
func (d *direction) completeHead() {
	t := d.head
	d.remove(t)
	if d.link.severed {
		// The link was cut while this packet was serializing: it dies here,
		// at the instant it was due. The rest of the cohort is equally doomed
		// and keeps its stored instants — no settle, no new shares — so each
		// member drops exactly when its own event would have fired.
		d.dropSevered(t)
		var head *transfer
		for _, a := range d.active {
			if head == nil || a.due < head.due {
				head = a
			}
		}
		d.arm(head)
		return
	}
	d.rebalance()
	k := d.link.net.K
	if d.link.remote != nil {
		// Cross-shard link: serialization is done; the propagation stage
		// happens as an inter-shard message on the destination kernel
		// (the sender may not schedule into the receiver's window).
		pkt := t.pkt
		d.link.net.putTransfer(t)
		d.link.shipRemote(pkt, k.Now()+d.link.cfg.Latency)
		return
	}
	// Enter the latency stage on the transfer's own event.
	d.propagate(t, k.Now()+d.link.cfg.Latency)
}

// countSevered accounts one severed-link drop (per-link and network-wide).
func (d *direction) countSevered() {
	d.link.Dropped++
	d.link.net.DetachDrops++
	d.link.net.cDetachDrops.Inc()
}

// dropSevered retires a transfer whose link was severed mid-flight: the
// packet returns to the pool, the drop is counted, and the transfer (with
// its persistent event) is recycled.
func (d *direction) dropSevered(t *transfer) {
	net := d.link.net
	d.countSevered()
	net.FreePacket(t.pkt)
	net.putTransfer(t)
}

// ActiveTransfers returns the number of transfers currently serializing a->b
// and b->a (diagnostic; packets in a host stack or the propagation stage are
// not counted). A count of one may be a solo, whose only event is its
// delivery; any other non-zero count is backed by the direction's one armed
// event.
func (l *Link) ActiveTransfers() (ab, ba int) {
	return l.ab.serializing(), l.ba.serializing()
}

// serializing counts the transfers on the wire without resolving anything: a
// fused transfer past its stack stage is the solo, its predecessor gone.
func (d *direction) serializing() int {
	if t := d.fused; t != nil && !d.inStack(t) {
		if d.soloOnWire(t) {
			return 1
		}
		return 0
	}
	if d.solo != nil && d.soloOnWire(d.solo) {
		return 1
	}
	return len(d.active)
}
