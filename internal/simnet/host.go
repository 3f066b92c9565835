package simnet

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by connection operations.
var (
	ErrConnRefused = errors.New("simnet: connection refused")
	ErrTimeout     = errors.New("simnet: timeout")
	ErrConnClosed  = errors.New("simnet: connection closed")
)

type addrPort struct {
	ip   Addr
	port int
}

// portPair is a connection's key in its host's table: its local port in the
// high 32 bits, its remote port in the low ones.
func portPair(local, remote int) uint64 {
	return uint64(uint32(local))<<32 | uint64(uint32(remote))
}

// Host is an end system (client device, edge server, cloud server) with one
// uplink port, a TCP-ish connection table, and port listeners.
type Host struct {
	net       *Network
	name      string
	ip        Addr
	id        uint32 // ip's number in net
	uplink    *Port
	listeners map[int]*Listener
	// conns files every connection under its portPair, the head of a chain
	// through Conn.samePorts; the few that share a pair (a server's peers
	// that dial from the same ephemeral port) are told apart by address
	// number.
	// nconns counts them all.
	conns     map[uint64]*Conn
	nconns    int
	ephemeral int
	// ProcDelay is the per-packet processing overhead of this host's stack
	// (e.g. Raspberry Pi clients are slower than the EGS).
	ProcDelay time.Duration
	// staged counts the packets in the stack stage that wait for their own
	// event to reach the uplink; a fused one (see stack) is not among them.
	staged int
	// detached distinguishes a host that deliberately left its attachment
	// point (Detach/MoveTo — sends drop deterministically) from one that was
	// never wired up (sends panic, a topology bug).
	detached bool
}

// NewHost creates a host with the given name and IP and registers it.
func NewHost(n *Network, name string, ip Addr) *Host {
	h := &Host{
		net:       n,
		name:      name,
		ip:        ip,
		id:        n.Number(ip),
		listeners: make(map[int]*Listener),
		conns:     make(map[uint64]*Conn),
		ephemeral: 32768,
	}
	n.Register(h)
	return h
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() Addr { return h.ip }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// SetUplink attaches the host's single network port. Use after
// Network.Connect: the port returned for this host becomes its uplink.
// Packets still in the host's stack leave it through p.
func (h *Host) SetUplink(p *Port) {
	if h.uplink != nil {
		h.uplink.dir.settleFused()
	}
	h.uplink = p
	if p != nil {
		h.detached = false
	}
}

// AttachTo connects the host to node sw (typically a switch) over a link
// with the given config and wires the uplink.
func (h *Host) AttachTo(sw Node, cfg LinkConfig) (hostPort, swPort *Port) {
	hp, sp := h.net.Connect(h, sw, cfg)
	h.SetUplink(hp)
	return hp, sp
}

// Detach severs the host's uplink — the first half of a handover. The old
// link is cut permanently: every packet already on it (either direction) is
// dropped when the stage it is in — serialization, propagation — would have
// ended, counted, and returned to the pool, and nothing is ever delivered
// from its ports again, except that a packet that has already reached a
// StagedNode (the switch at the far end) is still processed when its
// pipeline stage ends. Packets still inside the host's own ProcDelay stage
// have not left the stack yet, even one whose delivery was armed when it
// entered the stack (Detach un-fuses it); they go out the new uplink if one
// is attached by the end of their stage, and are dropped (counted, pooled)
// otherwise. Detaching a detached host is a no-op.
func (h *Host) Detach() {
	if h.uplink == nil {
		return
	}
	h.uplink.link.sever()
	h.uplink = nil
	h.detached = true
}

// MoveTo re-attaches the host to a new node in one step — the simnet
// primitive under a UE handover. It severs the current uplink (see Detach
// for the in-flight packet semantics) and connects a fresh link to the new
// attachment point, returning both ends. Established connections survive:
// they are addressed, not port-bound, so traffic resumes over the new link
// as soon as the peers' routes catch up (the switch-side rewiring is the
// caller's job — see testbed.Handover).
func (h *Host) MoveTo(to Node, cfg LinkConfig) (hostPort, peerPort *Port) {
	h.Detach()
	return h.AttachTo(to, cfg)
}

// Listener accepts inbound connections on one port.
type Listener struct {
	host   *Host
	port   int
	attach func(c *Conn) ConnHandler
	closed bool
}

// ListenAsync opens a listener: attach is invoked synchronously inside the
// SYN-arrival event for every inbound connection and returns the handler
// that will receive the connection's events. Listening twice on a port
// panics.
func (h *Host) ListenAsync(port int, attach func(c *Conn) ConnHandler) *Listener {
	if _, dup := h.listeners[port]; dup {
		panic(fmt.Sprintf("simnet: %s: duplicate listener on port %d", h.name, port))
	}
	l := &Listener{host: h, port: port, attach: attach}
	h.listeners[port] = l
	return l
}

// PortOpen reports whether a listener is active on port (local check; remote
// callers must probe with DialAsync, as the SDN controller does).
func (h *Host) PortOpen(port int) bool {
	l, ok := h.listeners[port]
	return ok && !l.closed
}

// OpenConns returns the number of connections in the host's table: dials in
// flight and connections not yet closed (diagnostics; a finished client
// should leave none behind).
func (h *Host) OpenConns() int { return h.nconns }

// conn returns the connection a segment from address number src and port
// srcPort to dst and dstPort belongs to, or nil.
func (h *Host) conn(dst uint32, dstPort int, src uint32, srcPort int) *Conn {
	c := h.conns[portPair(dstPort, srcPort)]
	for c != nil && (c.localID != dst || c.remoteID != src || c.local.port != dstPort || c.remote.port != srcPort) {
		c = c.samePorts
	}
	return c
}

// addConn files c at the head of its pair's chain. The table never holds c's
// tuple already: a connection leaves it the moment it closes (Close,
// maybeFinish, RST) or is aborted, a dial's local port is fresh, and the SYN
// arm adds only a tuple conn did not find.
func (h *Host) addConn(c *Conn) {
	key := portPair(c.local.port, c.remote.port)
	c.samePorts, h.conns[key] = h.conns[key], c
	h.nconns++
}

// delConn takes c, which is in the table, out of it.
func (h *Host) delConn(c *Conn) {
	key := portPair(c.local.port, c.remote.port)
	head := h.conns[key]
	at := &head
	for *at != c {
		at = &(*at).samePorts
	}
	*at = c.samePorts
	if head != nil {
		h.conns[key] = head
	} else {
		delete(h.conns, key)
	}
	h.nconns--
}

// Close removes the listener; established connections survive.
func (l *Listener) Close() {
	l.closed = true
	delete(l.host.listeners, l.port)
}

// ConnHandler receives a connection's events. Callbacks run synchronously
// inside the packet-delivery event and must not block; model time by
// scheduling kernel events.
type ConnHandler interface {
	// ConnEstablished reports handshake completion: ok=false means refused,
	// and the Conn is recycled once the call returns.
	ConnEstablished(c *Conn, ok bool)
	// ConnMessage delivers one in-order application payload.
	ConnMessage(c *Conn, payload any)
	// ConnClosed fires once when an established connection shuts down: the
	// peer's FIN, a RST, or local Close (inside the Close call). Abort is
	// silent.
	ConnClosed(c *Conn)
}

// Conn is a TCP-ish connection endpoint: every event it sees goes to its
// handler, the one way a Conn is driven.
type Conn struct {
	host   *Host
	local  addrPort
	remote addrPort
	// localID and remoteID are the ends' address numbers in the host's
	// network: what every segment the connection sends carries, and what
	// tells apart the connections of one port pair.
	localID, remoteID uint32
	samePorts         *Conn // next in the host table's chain of this port pair
	handler           ConnHandler
	// TCP-like in-order delivery of DATA segments: the sender numbers
	// them, the receiver buffers out-of-order arrivals.
	sendSeq  uint64
	recvNext uint64
	oooBuf   map[uint64]*Packet
	// finSeq, when non-zero, is the sequence number just past the last
	// DATA segment; the connection closes once everything before it has
	// been delivered.
	finSeq      uint64
	established bool // handshake completed
	closed      bool
	// reap marks a connection nobody holds any more: set by Close, by a
	// refused handshake and by a pooled handler (httpCall, HTTPServerConn)
	// that is done with it; see settle.
	reap bool
}

// recycler is a ConnHandler whose state, its connection included, returns
// to a free list once it has set Conn.reap.
type recycler interface {
	release()
}

// settle recycles c if the callback that just returned set c.reap, with its
// handler if that is pooled. It runs at the bottom of the HandlePacket arm,
// never inside the callback: deliverInOrder still reads c after deliver
// returns, and a completion may dial synchronously, which a LIFO pool would
// hand the very objects still on the stack.
func (c *Conn) settle() {
	if !c.reap {
		return
	}
	if r, ok := c.handler.(recycler); ok {
		r.release()
	} else {
		c.host.net.freeConn(c)
	}
}

// newConn takes a connection from the network's free list (or builds one).
// Every connection is made here. One goes back once nobody holds it: at the
// end of the callback that closed it or was told of its refusal (settle), at
// Abort, or when its pooled handler is released.
func (n *Network) newConn() *Conn {
	if ln := len(n.connPool); ln > 0 {
		c := n.connPool[ln-1]
		n.connPool[ln-1] = nil
		n.connPool = n.connPool[:ln-1]
		return c
	}
	return &Conn{}
}

// freeConn returns a closed connection to the free list. Packets still in
// the reorder buffer go back to the packet pool and the emptied map is kept;
// every other field is zeroed, so a stale reference panics (nil host) rather
// than reaching the connection's next owner.
func (n *Network) freeConn(c *Conn) {
	for _, p := range c.oooBuf {
		n.FreePacket(p)
	}
	clear(c.oooBuf)
	*c = Conn{oooBuf: c.oooBuf}
	n.connPool = append(n.connPool, c)
}

func (h *Host) sendOut(pkt *Packet) {
	if h.uplink == nil && !h.detached {
		panic(fmt.Sprintf("simnet: host %s has no uplink", h.name))
	}
	if h.ProcDelay > 0 {
		h.stack(pkt)
		return
	}
	if h.uplink == nil {
		h.dropDetached(pkt)
		return
	}
	h.uplink.Send(pkt)
}

// stack puts pkt into the host's stack stage, which it leaves ProcDelay from
// now. The packet enters it regardless of attachment; whether it goes out
// (and over which uplink) is decided when the stage ends. A quiet host — no
// other packet in its stack, and an uplink direction that fuse accepts — arms
// the packet's delivery at once, stage, serialization and propagation in one
// event; otherwise the packet's event is armed for the end of the stage,
// where unstack sends it. Every packet's event draws its sequence number
// here, so packets leave the stack in send order.
func (h *Host) stack(pkt *Packet) {
	if pkt.Size < minWireSize {
		pkt.Size = minWireSize
	}
	t := h.net.getTransfer(nil)
	t.pkt, t.host = pkt, h
	t.updated = h.net.K.Now() + h.ProcDelay
	if h.uplink != nil {
		d := h.uplink.dir
		d.settleFused() // a fused packet still in the stack is no longer alone
		if h.staged == 0 && d.fuse(t) {
			return
		}
	}
	h.staged++
	h.net.K.Schedule(t.finish, t.updated)
}

// unstack sends a packet whose stack stage has ended. One leaving the stack
// while the host is detached is dropped (counted, pooled); one leaving it
// after a MoveTo re-attach goes out the new uplink — it had not left the host
// when the old link died.
func (h *Host) unstack(t *transfer) {
	h.staged--
	if h.uplink == nil {
		pkt := t.pkt
		h.net.putTransfer(t)
		h.dropDetached(pkt)
		return
	}
	t.dir = h.uplink.dir
	t.dir.send(t)
}

// dropDetached drops a packet sent between Detach and re-attach: the stack
// has no way out.
func (h *Host) dropDetached(pkt *Packet) {
	h.net.detachDrops++
	h.net.FreePacket(pkt)
}

// DialAsync opens a connection: nothing blocks, and handler receives
// ConnEstablished when the handshake completes (ok=false when refused).
// Timeouts are the caller's concern: schedule a kernel event and Abort, which
// sends nothing. Close would emit a FIN for a connection the peer may never
// have seen.
func (h *Host) DialAsync(dst Addr, port int, handler ConnHandler) *Conn {
	lp := h.ephemeral
	h.ephemeral++
	c := h.net.newConn()
	c.host, c.handler = h, handler
	c.local, c.remote = addrPort{h.ip, lp}, addrPort{dst, port}
	c.localID, c.remoteID = h.id, h.net.Number(dst)
	h.addConn(c)
	syn := h.net.NewPacket()
	c.address(syn, KindSYN)
	h.sendOut(syn)
	return c
}

// HandlePacket implements Node: demultiplex to connections and listeners. A
// connection in the table is never closed (it leaves the table as it
// closes), so a segment that finds one is for a live connection.
func (h *Host) HandlePacket(in *Port, pkt *Packet) {
	h.net.NumberPacket(pkt)
	switch pkt.Kind {
	case KindSYN:
		if c := h.conn(pkt.DstID, pkt.DstPort, pkt.SrcID, pkt.SrcPort); c != nil {
			// Duplicate SYN (e.g. retry); re-acknowledge idempotently.
			h.net.FreePacket(pkt)
			h.replySYNACK(c)
			return
		}
		l, ok := h.listeners[pkt.DstPort]
		if !ok || l.closed {
			// Reuse the consumed SYN as the RST reply.
			pkt.Kind = KindRST
			pkt.SrcIP, pkt.DstIP = pkt.DstIP, pkt.SrcIP
			pkt.SrcID, pkt.DstID = pkt.DstID, pkt.SrcID
			pkt.SrcPort, pkt.DstPort = pkt.DstPort, pkt.SrcPort
			pkt.Size = minWireSize
			h.sendOut(pkt)
			return
		}
		c := h.net.newConn()
		c.host, c.established = h, true
		c.local, c.remote = addrPort{pkt.DstIP, pkt.DstPort}, addrPort{pkt.SrcIP, pkt.SrcPort}
		c.localID, c.remoteID = pkt.DstID, pkt.SrcID
		h.net.FreePacket(pkt)
		h.addConn(c)
		h.replySYNACK(c)
		c.handler = l.attach(c)
	case KindSYNACK:
		if c := h.conn(pkt.DstID, pkt.DstPort, pkt.SrcID, pkt.SrcPort); c != nil && !c.established {
			c.established = true
			c.handler.ConnEstablished(c, true)
			c.settle()
		}
		h.net.FreePacket(pkt)
	case KindRST:
		if c := h.conn(pkt.DstID, pkt.DstPort, pkt.SrcID, pkt.SrcPort); c != nil {
			h.delConn(c)
			c.closed = true
			if !c.established {
				c.handler.ConnEstablished(c, false)
				c.reap = true // nothing touches a refused dial after its callback
			} else {
				c.handler.ConnClosed(c)
			}
			c.settle()
		}
		h.net.FreePacket(pkt)
	case KindDATA:
		if c := h.conn(pkt.DstID, pkt.DstPort, pkt.SrcID, pkt.SrcPort); c != nil {
			c.deliverInOrder(pkt) // ownership moves to the conn; freed on delivery
			c.settle()
		} else {
			h.net.FreePacket(pkt)
		}
	case KindFIN:
		if c := h.conn(pkt.DstID, pkt.DstPort, pkt.SrcID, pkt.SrcPort); c != nil {
			// Close only after all DATA before the FIN has been
			// delivered (the FIN carries the next sequence number).
			c.finSeq = pkt.Seq
			c.maybeFinish()
			c.settle()
		}
		h.net.FreePacket(pkt)
	}
}

func (h *Host) replySYNACK(c *Conn) {
	sa := h.net.NewPacket()
	c.address(sa, KindSYNACK)
	h.sendOut(sa)
}

// address makes p a control segment of kind k from c's local end to its
// remote one, address numbers included.
func (c *Conn) address(p *Packet, k PacketKind) {
	p.Kind, p.Size = k, minWireSize
	p.SrcIP, p.SrcID, p.SrcPort = c.local.ip, c.localID, c.local.port
	p.DstIP, p.DstID, p.DstPort = c.remote.ip, c.remoteID, c.remote.port
}

// Send transmits an application message of the given size on the connection.
// It does not block: delivery latency is modelled on the links. Messages on
// one connection are delivered in send order, as TCP guarantees.
func (c *Conn) Send(size Bytes, payload any) error {
	if c.closed {
		return ErrConnClosed
	}
	c.sendSeq++
	d := c.host.net.NewPacket()
	c.address(d, KindDATA)
	d.Size, d.Payload, d.Seq = size, payload, c.sendSeq
	c.host.sendOut(d)
	return nil
}

// deliver hands one in-order payload to the handler; the packet returns to
// the pool first, so the handler may send from inside the callback.
func (c *Conn) deliver(pkt *Packet) {
	payload := pkt.Payload
	c.host.net.FreePacket(pkt)
	c.handler.ConnMessage(c, payload)
}

// deliverInOrder enqueues pkt respecting sequence order, buffering
// out-of-order arrivals.
func (c *Conn) deliverInOrder(pkt *Packet) {
	if pkt.Seq == 0 {
		// Unsequenced segment (raw Port.Send without a Conn): pass through.
		c.deliver(pkt)
		return
	}
	if pkt.Seq == c.recvNext+1 && len(c.oooBuf) == 0 {
		// In-order arrival with nothing buffered — the common case; skip
		// the reorder buffer entirely (it is allocated lazily, only when a
		// connection actually sees out-of-order delivery).
		c.recvNext++
		c.deliver(pkt)
		c.maybeFinish()
		return
	}
	if c.oooBuf == nil {
		c.oooBuf = make(map[uint64]*Packet)
	}
	c.oooBuf[pkt.Seq] = pkt
	for {
		next, ok := c.oooBuf[c.recvNext+1]
		if !ok {
			break
		}
		delete(c.oooBuf, c.recvNext+1)
		c.recvNext++
		c.deliver(next)
	}
	c.maybeFinish()
}

// maybeFinish closes the connection once the peer's FIN is reached.
func (c *Conn) maybeFinish() {
	if c.closed || c.finSeq == 0 {
		return
	}
	if c.recvNext+1 >= c.finSeq {
		c.closed = true
		c.host.delConn(c)
		c.handler.ConnClosed(c)
	}
}

// Abort forgets a dial that has had no answer: it leaves the host's
// connection table and nothing is sent, so a SYN-ACK or RST that still
// arrives finds no connection and is freed. The handler gets no further
// callback. This is how a dial ends on timeout; a refused one is over when
// its ConnEstablished returns, an established connection ends with Close.
// The Conn goes back to the network's free list at once, so the caller drops
// it: nothing may touch a Conn after Abort.
func (c *Conn) Abort() {
	c.host.delConn(c)
	c.host.net.freeConn(c)
}

// Close tears an established connection down on both ends (FIN) and tells
// the handler. Closed inside one of its own callbacks, the Conn is recycled
// once that callback returns, so the handler drops it there.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed, c.reap = true, true
	c.host.delConn(c)
	fin := c.host.net.NewPacket()
	c.address(fin, KindFIN)
	fin.Seq = c.sendSeq + 1
	c.host.sendOut(fin)
	c.handler.ConnClosed(c)
}

// Router is a static L3 node: packets are forwarded on the port registered
// for the destination address, or the default port. It stands in for the
// plain (non-OpenFlow) parts of the topology, e.g. the path toward the
// cloud.
type Router struct {
	net  *Network
	name string
	// routes holds the port of each routed address, by the address's number
	// in net; a number past its end has none.
	routes   []*Port
	fallback *Port
}

// NewRouter creates a router node.
func NewRouter(n *Network, name string) *Router {
	r := &Router{net: n, name: name}
	n.Register(r)
	return r
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// AddRoute forwards packets destined to ip out of port p.
func (r *Router) AddRoute(ip Addr, p *Port) {
	id := r.net.Number(ip)
	for int(id) >= len(r.routes) {
		r.routes = append(r.routes, nil)
	}
	r.routes[id] = p
}

// SetDefault sets the default (gateway) port.
func (r *Router) SetDefault(p *Port) { r.fallback = p }

// route returns the port the destination with address number id routes to
// (nil if none).
func (r *Router) route(id uint32) *Port {
	if int(id) < len(r.routes) && r.routes[id] != nil {
		return r.routes[id]
	}
	return r.fallback
}

// HandlePacket implements Node.
func (r *Router) HandlePacket(in *Port, pkt *Packet) {
	r.net.NumberPacket(pkt)
	out := r.route(pkt.DstID)
	if out == nil || out == in {
		return // drop: no route (left to GC, never recycled)
	}
	out.Send(pkt)
}
