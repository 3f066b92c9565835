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
// the propagation delay (see direction; DESIGN.md §20).
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
//   - dropped packets (link down, loss, no route) are left to the garbage
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

// Network owns the kernel, nodes, and links of one emulated topology.
type Network struct {
	K        *sim.Kernel
	links    []*Link
	nextPkt  uint64
	nodes    []Node
	PktTrace func(where string, pkt *Packet) // optional debug hook

	pktPool  []*Packet   // recycled packets (NewPacket / FreePacket)
	xferPool []*transfer // recycled link transfers with their events
	connPool []*Conn     // recycled connections (newConn / freeConn)
	callPool []*httpCall // recycled HTTPGetAsync calls with their deadline events

	// DetachDrops counts packets dropped because their link was severed by a
	// host detach/handover (these drops free to the pool, unlike loss/down
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
	// arrival, an Impair or a Detach turned back into cohort members.
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
	// Loss is the probability in [0,1) that a packet is dropped on this
	// link. Draws come from a per-link-direction counter-keyed hash (not
	// the kernel RNG), so a link's drop pattern depends only on its name
	// and its own packet sequence — never on event interleaving elsewhere,
	// which keeps sharded runs bit-identical to serial ones.
	Loss float64
}

// Port is one end of a link, attached to a node.
type Port struct {
	node  Node
	link  *Link
	dir   *direction // transmit direction for this port
	peer  *Port
	Label string
}

// Node returns the node the port is attached to.
func (p *Port) Node() Node { return p.node }

// Link returns the link the port belongs to.
func (p *Port) Link() *Link { return p.link }

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
	// extraLoss / extraLatency are fault-injection impairments added on
	// top of the configured loss and propagation delay (see Impair). Both
	// zero by default, in which case the datapath behaves exactly as
	// configured — no extra RNG draw, no added delay.
	extraLoss    float64
	extraLatency time.Duration
	// Dropped counts packets lost to failures or configured loss.
	Dropped uint64
	// remote, when non-nil, marks this link as the local half of a
	// cross-shard link (see Fabric): serialization and loss happen here,
	// but instead of local delivery the packet ships to another domain's
	// network as a timestamped inter-shard message.
	remote *remoteHalf
}

// Impair adds loss probability and one-way latency to the link on top of
// its configuration — the fault plan's degraded-backhaul knob. Impair(0, 0)
// restores the configured behavior. A packet takes the latency in force when
// its last byte leaves the wire, so a lone transfer still serializing — whose
// delivery was scheduled with the old one — first goes back to being a cohort
// member that reads it then.
func (l *Link) Impair(loss float64, extraLatency time.Duration) {
	if extraLatency != l.extraLatency {
		l.unsolo()
	}
	l.extraLoss = loss
	l.extraLatency = extraLatency
}

// latency returns the effective one-way propagation delay.
func (l *Link) latency() time.Duration { return l.cfg.Latency + l.extraLatency }

// SetDown takes the link down (packets are silently dropped) or brings it
// back up — the simulation's cable pull for failure injection.
func (l *Link) SetDown(down bool) { l.down = down }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Connect creates a link between nodes a and b and returns the two ports
// (the first attached to a, the second to b).
func (n *Network) Connect(a, b Node, cfg LinkConfig) (*Port, *Port) {
	l := &Link{net: n, cfg: cfg}
	pa, pb := &l.a, &l.b
	*pa = Port{node: a, link: l, dir: &l.ab, peer: pb}
	*pb = Port{node: b, link: l, dir: &l.ba, peer: pa}
	l.ab.init(pa, 1)
	l.ba.init(pb, 2)
	n.links = append(n.links, l)
	return pa, pb
}

// ImpairAll applies the same loss/latency impairment to every link of the
// network (the fault plan's whole-backhaul degradation). Zero arguments
// restore configured behavior everywhere.
func (n *Network) ImpairAll(loss float64, extraLatency time.Duration) {
	for _, l := range n.links {
		l.Impair(loss, extraLatency)
	}
}

// deliverToPeer ends a packet's trip out of port p: trace hook, then hand the
// packet to the peer node.
func (p *Port) deliverToPeer(delivered *Packet) {
	peer := p.peer
	if peer == nil {
		return
	}
	if p.link.net.PktTrace != nil {
		p.link.net.PktTrace(peer.node.Name(), delivered)
	}
	peer.node.HandlePacket(peer, delivered)
}

// transfer is one in-flight transmission on a link. While it serializes it
// carries only arithmetic (bytes left, current share, the instant it would
// complete at that share). Alone on its direction — the direction's solo — its
// own persistent re-armable event, finish, is armed once for the delivery
// instant, serialization and propagation together; as a member of a cohort it
// waits for the direction's event to fire for whichever member is due first,
// and finish covers only the propagation stage that follows. Transfers are
// recycled through the network's free list, so the steady-state per-packet
// datapath performs zero heap allocations.
type transfer struct {
	dir       *direction
	remaining float64 // bytes left to serialize
	rate      float64 // current bytes/sec share
	updated   sim.Time
	due       sim.Time   // serialization completes here at the current share
	finish    *sim.Event // persistent; armed for delivery (solo) or the latency stage (cohort)
	pkt       *Packet
}

// fire is the transfer's event callback: the propagation delay has elapsed.
func (t *transfer) fire() {
	d := t.dir
	if d.solo == t {
		d.soloDone()
	}
	if d.link.severed {
		// The link was cut while this packet was propagating: it dies here,
		// deterministically, at the time its delivery was due. No delivery
		// from a dead port.
		d.dropSevered(t)
		return
	}
	pkt := t.pkt
	d.link.net.putTransfer(t)
	d.port.deliverToPeer(pkt)
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
	t.pkt = nil
	t.dir = nil
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
// (transmit, Link.Impair, Host.Detach, ActiveTransfers) first resolves the
// solo: past its due it has left the wire and is forgotten; before it, it is
// materialised — delivery cancelled, appended to active — and from there on
// it is an ordinary member (DESIGN.md §20).
//
// Invariant: a direction with a solo has an empty cohort and arms nothing of
// its own; a non-empty cohort has exactly one armed kernel event, done, set
// for head — the member with the least (due, arrival order). Only the head
// can complete before the next membership change, and that change recomputes
// every due anyway, so no other member needs an event of its own.
type direction struct {
	link   *Link
	port   *Port     // the end that transmits into this direction
	solo   *transfer // lone transfer riding its own delivery event; active is empty
	active []*transfer
	head   *transfer  // least (due, arrival order) of active; nil when empty
	done   *sim.Event // persistent; armed at head.due (allocated at Connect)
	// lossSeed/lossN drive the deterministic per-direction loss draws: the
	// n-th packet entering this direction sees splitmix64(seed, n), which
	// is independent of every other link and of event interleaving.
	lossSeed uint64
	lossN    uint64
}

// init binds d to its transmitting port and allocates its completion event.
// which is 1 for the a->b direction and 2 for b->a, so a direction's drop
// pattern depends only on the link name and which end sends.
func (d *direction) init(p *Port, which uint64) {
	d.link = p.link
	d.port = p
	d.lossSeed = splitmix64(fnv64(d.link.cfg.Name) ^ which)
	d.done = d.link.net.K.NewEvent(d.completeHead)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap
// high-quality bijective mixer (same construction the fault plan uses for
// interleaving-independent decisions).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv64 hashes a string with FNV-1a (seed material for loss draws).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// lossDraw returns the next uniform [0,1) variate of this direction's
// deterministic drop sequence.
func (d *direction) lossDraw() float64 {
	d.lossN++
	return float64(splitmix64(d.lossSeed+d.lossN)>>11) / float64(1<<53)
}

func (d *direction) capacityBps() float64 {
	return float64(d.link.cfg.Bandwidth) / 8.0 // bytes per second
}

func (d *direction) transmit(pkt *Packet) {
	k := d.link.net.K
	if d.link.severed {
		// A send into a severed link (e.g. the peer switch still routing at
		// the old port) drops immediately, back to the pool.
		d.countSevered()
		d.link.net.FreePacket(pkt)
		return
	}
	loss := d.link.cfg.Loss + d.link.extraLoss
	if d.link.down || (loss > 0 && d.lossDraw() < loss) {
		d.link.Dropped++
		d.link.net.cDrops.Inc()
		return // dropped packets are not recycled (see package comment)
	}
	lat := d.link.latency()
	if d.link.cfg.Bandwidth <= 0 {
		if d.link.remote != nil {
			// Infinite bandwidth on a cross-shard link: ship immediately
			// with the propagation delay as the delivery offset.
			d.link.shipRemote(pkt, k.Now()+lat)
			return
		}
		// Infinite bandwidth: propagation only.
		t := d.link.net.getTransfer(d)
		t.pkt = pkt
		k.Schedule(t.finish, k.Now()+lat)
		return
	}
	t := d.link.net.getTransfer(d)
	t.pkt = pkt
	t.remaining = float64(pkt.Size)
	t.updated = k.Now()
	d.materialise()
	if len(d.active) == 0 && d.link.remote == nil {
		// Alone on the wire: what rebalance computes for a cohort of one, and
		// the delivery armed where done would have been. A cross-shard half
		// stays a cohort because it ships at due, which a later arrival moves.
		t.rate = d.capacityBps()
		t.due = t.updated + time.Duration(t.remaining/t.rate*float64(time.Second))
		d.solo = t
		k.Schedule(t.finish, t.due+lat)
		return
	}
	d.active = append(d.active, t)
	d.rebalance()
}

// soloOnWire reports whether the direction's solo is still serializing. At
// the very nanosecond it is due, the answer is what the cohort code's would
// be: done, armed where finish was, fires after the running event exactly if
// that event precedes the arming (a sender that met the last sub-nanosecond
// residue of the solo shares the wire with it; one that came after does not).
func (d *direction) soloOnWire() bool {
	t, k := d.solo, d.link.net.K
	return k.Now() < t.due || k.Now() == t.due && k.Precedes(t.finish)
}

// soloDone forgets the solo: its last byte has left the wire (or it has just
// been delivered), so the direction is empty and the transfer's own event is
// all that is left of it.
func (d *direction) soloDone() {
	d.solo = nil
	d.link.net.cSoloDone.Inc()
}

// materialise resolves the direction's solo before its state is read or
// changed. A solo still serializing becomes the cohort's only member, its
// delivery cancelled, with the fields rebalance would have left it — the
// caller arms done (transmit does by rebalancing) — and materialise reports
// true; one that has left the wire is forgotten.
func (d *direction) materialise() bool {
	t := d.solo
	if t == nil {
		return false
	}
	if !d.soloOnWire() {
		d.soloDone()
		return false
	}
	d.solo = nil
	t.finish.Cancel()
	d.active = append(d.active, t)
	d.link.net.cSoloMaterialised.Inc()
	return true
}

// unsolo materialises the solo of either direction and arms done for it, so
// that what is about to change — the latency, the link being severed — meets
// the transfer at the end of its serialization, as it meets a cohort's.
func (l *Link) unsolo() {
	for _, d := range [...]*direction{&l.ab, &l.ba} {
		if d.materialise() {
			d.arm(d.active[0])
		}
	}
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
		d.link.shipRemote(pkt, k.Now()+d.link.latency())
		return
	}
	// Enter the latency stage on the transfer's own event.
	k.Schedule(t.finish, k.Now()+d.link.latency())
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
// and b->a (diagnostic; packets in the propagation stage are not counted). A
// count of one may be a solo, whose only event is its delivery; any other
// non-zero count is backed by the direction's one armed event.
func (l *Link) ActiveTransfers() (ab, ba int) {
	return l.ab.serializing(), l.ba.serializing()
}

// serializing counts the transfers on the wire without resolving the solo.
func (d *direction) serializing() int {
	if d.solo != nil && d.soloOnWire() {
		return 1
	}
	return len(d.active)
}
