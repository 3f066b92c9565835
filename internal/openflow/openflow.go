// Package openflow models the SDN data plane of the paper: an OVS-like
// switch with a priority-matched flow table, header-rewrite actions
// (set-field on IP/port — the packet filtering and rewriting capabilities
// of OpenFlow the transparent-access approach relies on), idle timeouts with
// flow-removed notifications, packet-in on registered addresses, and
// packet-out / flow-mod from the controller.
//
// The switch also offers a NORMAL action (as OVS does): plain L3 forwarding
// via a static route table, used for all traffic that is not redirected.
//
// The flow table and the routes hash no address string per packet: the
// switch numbers every address a rule or route names, a lookup numbers the
// packet's two addresses once and probes only the signatures whose address
// fields those addresses have appeared in, with a 16-byte integer key, and
// NORMAL output routes by number (DESIGN.md §19).
package openflow

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// OutputKind says where a matched packet goes.
type OutputKind int

// Output kinds.
const (
	// OutputNormal forwards via the switch's static L3 routes.
	OutputNormal OutputKind = iota
	// OutputPort forwards out of a specific switch port.
	OutputPort
	// OutputController punts the packet to the SDN controller (packet-in).
	OutputController
	// OutputDrop discards the packet.
	OutputDrop
)

// Match selects packets; zero-valued fields are wildcards.
type Match struct {
	SrcIP   simnet.Addr
	DstIP   simnet.Addr
	SrcPort int
	DstPort int
}

// Matches reports whether pkt satisfies the match.
func (m Match) Matches(pkt *simnet.Packet) bool {
	if m.SrcIP != "" && m.SrcIP != pkt.SrcIP {
		return false
	}
	if m.DstIP != "" && m.DstIP != pkt.DstIP {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != pkt.SrcPort {
		return false
	}
	if m.DstPort != 0 && m.DstPort != pkt.DstPort {
		return false
	}
	return true
}

// String prints the match as src=IP:port dst=IP:port, a wildcard field as *.
func (m Match) String() string {
	return fmt.Sprintf("src=%s:%s dst=%s:%s", orAny(string(m.SrcIP)), portOrAny(m.SrcPort), orAny(string(m.DstIP)), portOrAny(m.DstPort))
}

func orAny(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

func portOrAny(p int) string {
	if p == 0 {
		return "*"
	}
	return strconv.Itoa(p)
}

// Actions rewrites headers (set-field) and outputs the packet. Zero-valued
// set fields leave the header unchanged.
type Actions struct {
	SetSrcIP   simnet.Addr
	SetDstIP   simnet.Addr
	SetSrcPort int
	SetDstPort int
	Output     OutputKind
	OutPort    int // valid when Output == OutputPort
}

func (a Actions) apply(pkt *simnet.Packet) {
	if a.SetSrcIP != "" {
		pkt.SrcIP = a.SetSrcIP
	}
	if a.SetDstIP != "" {
		pkt.DstIP = a.SetDstIP
	}
	if a.SetSrcPort != 0 {
		pkt.SrcPort = a.SetSrcPort
	}
	if a.SetDstPort != 0 {
		pkt.DstPort = a.SetDstPort
	}
}

// FlowRule is one table entry. The switch recycles its rules: the pointer
// AddFlow returns (or Rules lists) is valid while the rule is in the table,
// and the one HandleFlowRemoved receives only for the duration of that call.
type FlowRule struct {
	Priority int
	Match    Match
	Actions  Actions
	// IdleTimeout (0 = none) arms the idle clock of the rule's cookie, the
	// unit of idle lifetime: the rules of a cookie share one clock, run on
	// the IdleTimeout of the first of them to set one; a hit on any of them
	// refreshes it, and when it runs out they all leave the table together.
	IdleTimeout time.Duration
	Cookie      uint64
	// NotifyRemoved requests a flow-removed message on expiry. A cookie that
	// idles out sends one, for the oldest of its rules that asked.
	NotifyRemoved bool

	installed sim.Time
	packets   uint64
	bytes     simnet.Bytes
	removed   bool
	seq       uint64 // insertion order (tie-break among equal priorities)
	// key is the rule's match key under its signature, and setDst the number
	// of Actions.SetDstIP (0 when the rule does not rewrite the destination),
	// so a hit routes the rewritten packet without looking its address up.
	key    matchKey
	setDst uint32
	// sameKey chains the rules sharing this rule's signature and match key
	// in lookup order; sameCookie chains the rules of group, newest first.
	sameKey, sameCookie *FlowRule
	group               *cookieGroup
	// A removed rule goes back to the switch's free list once its
	// flow-removed notice is no longer in flight.
	notifying bool
}

// cookieGroup is the live rules of one cookie and the idle clock they share.
// It is in byCookie exactly while the table holds a rule of the cookie, and
// on the switch's free list otherwise; expire, its idle clock's callback, is
// bound once per group object.
type cookieGroup struct {
	head   *FlowRule
	idle   sim.Idle
	timed  bool // idle was started (by the first member with an IdleTimeout)
	expire func()
}

// Stats returns the rule's packet and byte counters.
func (r *FlowRule) Stats() (packets uint64, bytes simnet.Bytes) { return r.packets, r.bytes }

// PacketIn is the event handed to the controller on a table hit with
// OutputController (or on table miss if the switch is so configured).
type PacketIn struct {
	Switch *Switch
	InPort int
	Packet *simnet.Packet
}

// Controller receives packet-in and flow-removed messages. It runs in
// kernel event context and must not block (spawn processes for long work).
type Controller interface {
	HandlePacketIn(ev PacketIn)
	HandleFlowRemoved(sw *Switch, rule *FlowRule)
}

// Config models the switch's forwarding characteristics.
type Config struct {
	// FwdDelay is per-packet pipeline latency.
	FwdDelay time.Duration
	// ControllerLatency is the switch<->controller channel delay, charged
	// each way (packet-in and flow-mod/packet-out are asymmetric calls in
	// a real deployment; the paper colocates both on the EGS).
	ControllerLatency time.Duration
	// MissBehavior is applied on table miss.
	MissBehavior OutputKind
}

// DefaultConfig mirrors a local OVS with the controller on the same host.
func DefaultConfig() Config {
	return Config{
		FwdDelay:          20 * time.Microsecond,
		ControllerLatency: 300 * time.Microsecond,
		MissBehavior:      OutputNormal,
	}
}

// sigKey encodes which match fields a rule specifies; rules with the same
// signature live in one exact-match map so a lookup is O(signatures)
// instead of O(rules). Wildcard-heavy rules are rare (punt rules per
// service); client redirect rules are fully keyed and hit the maps.
type sigKey uint8

const (
	sigSrcIP sigKey = 1 << iota
	sigDstIP
	sigSrcPort
	sigDstPort
	numSigs = 1 << iota
)

// Signature sets (bit sig stands for signature sig, as in liveSigs) that
// wildcard one match field: a packet field no rule names can match only rules
// of these signatures.
const (
	noSrcIP   uint16 = 0x5555 // sigSrcIP clear
	noDstIP   uint16 = 0x3333 // sigDstIP clear
	noSrcPort uint16 = 0x0F0F // sigSrcPort clear
	noDstPort uint16 = 0x00FF // sigDstPort clear
)

// maxPort bounds match ports: a key holds a port in 32 bits, exactly.
const maxPort = 1 << 32

func signatureOf(m Match) sigKey {
	var s sigKey
	if m.SrcIP != "" {
		s |= sigSrcIP
	}
	if m.DstIP != "" {
		s |= sigDstIP
	}
	if m.SrcPort != 0 {
		s |= sigSrcPort
	}
	if m.DstPort != 0 {
		s |= sigDstPort
	}
	return s
}

// matchKey is the concrete field tuple of a rule (or packet) under one
// signature, addresses by their switch-local numbers. It is 16 bytes, which
// the runtime hashes as one 128-bit word.
type matchKey struct {
	srcIP, dstIP, srcPort, dstPort uint32
}

func keyOf(sig sigKey, srcIP, dstIP, srcPort, dstPort uint32) matchKey {
	var k matchKey
	if sig&sigSrcIP != 0 {
		k.srcIP = srcIP
	}
	if sig&sigDstIP != 0 {
		k.dstIP = dstIP
	}
	if sig&sigSrcPort != 0 {
		k.srcPort = srcPort
	}
	if sig&sigDstPort != 0 {
		k.dstPort = dstPort
	}
	return k
}

// Switch is an OpenFlow switch node.
type Switch struct {
	name string
	net  *simnet.Network
	cfg  Config
	// sigs is the single home of the live rules: one exact-match map per
	// signature, each value the head of a FlowRule.sameKey chain whose first
	// rule is the one a lookup picks (highest priority, earliest install).
	// Bit sig of liveSigs is set exactly while sigs[sig] holds a rule, so
	// lookups probe only those maps; an emptied map stays, for the
	// signature's next rule. No structure keeps the table in order: only
	// Rules reads order, and it sorts a copy.
	sigs     [numSigs]map[matchKey]*FlowRule
	liveSigs uint16
	// addrs numbers every address a rule's match or SetDstIP, or a route,
	// has named, from 1 in order of first mention; 0 stands for an address
	// none has. Numbers are never taken back, so the table grows with the
	// distinct addresses (hosts and service VIPs), not with installs. nums
	// holds what the switch keeps per number, number 0's entry included.
	addrs map[simnet.Addr]uint32
	nums  []addrEntry
	// byCookie finds each cookie's group, making DeleteFlows O(rules with
	// that cookie).
	byCookie map[uint64]*cookieGroup
	// freeRules and freeGroups recycle what the table is done with, so a
	// warm flow-mod allocates nothing; each holds at most the table's high
	// water.
	freeRules  []*FlowRule
	freeGroups []*cookieGroup
	rules      int
	seq        uint64
	ports      map[int]*simnet.Port
	portOf     map[*simnet.Port]int
	// retired keeps the numbers of ports DetachPort forgot within the last
	// pipeline stage: a packet that reached the switch through one before it
	// was forgotten is processed under the in-port it arrived on.
	retired    []retiredPort
	defaultOut int // port used when no route matches (toward the cloud); -1 = none
	controller Controller
	nextCookie uint64
	// PacketsIn counts packets punted to the controller (diagnostics).
	PacketsIn uint64
	// FlowMods counts flow-mod messages received from the controller (one
	// per AddFlow, one per DeleteFlows call) — the control-channel traffic
	// the stateless steering backend exists to eliminate.
	FlowMods uint64
	// RuleHighWater is the peak flow-table size ever observed — the
	// table-pressure metric of the steering comparison. Updated on AddFlow,
	// so it needs no sampler process.
	RuleHighWater int
	// ingressSteer, when set, runs before table lookup on every packet
	// entering the pipeline (including TableOut re-injections). Returning
	// true means the hook took ownership of the packet (rewrote and
	// forwarded, or dropped it); false falls through to the flow table. A
	// nil hook costs one predictable branch per packet.
	ingressSteer func(sw *Switch, inPort int, pkt *simnet.Packet) bool
	// ctrlq is the controller channel in both directions: packet-ins and
	// flow-removed notices up, packet-outs down. ControllerLatency is
	// constant too, so one FIFO drained by a persistent thunk delivers every
	// message in send order without a closure per message.
	ctrlq    []ctrlMsg
	ctrlHead int
	ctrlFn   func()
}

// addrEntry is what the switch keeps per address number: as bit sig, whether
// a rule of signature sig has ever named the address as its source (asSrc)
// or destination (asDst) — a bit is never cleared, so a stale one costs a
// probe, never a wrong answer — and the address's NORMAL port, -1 for none.
type addrEntry struct {
	asSrc, asDst uint16
	route        int
}

// retiredPort is a port DetachPort forgot, at the instant it did.
type retiredPort struct {
	port *simnet.Port
	num  int
	at   sim.Time
}

// ctrlKind tags a controller-channel message.
type ctrlKind uint8

const (
	msgPacketIn ctrlKind = iota
	msgFlowRemoved
	msgPacketOut
	msgTableOut
)

// ctrlMsg is one message on the controller channel; which fields it uses
// depends on its kind.
type ctrlMsg struct {
	kind    ctrlKind
	inPort  int
	pkt     *simnet.Packet
	rule    *FlowRule
	actions Actions
}

// NewSwitch creates a switch node.
func NewSwitch(n *simnet.Network, name string, cfg Config) *Switch {
	s := &Switch{
		name:       name,
		net:        n,
		cfg:        cfg,
		byCookie:   make(map[uint64]*cookieGroup),
		ports:      make(map[int]*simnet.Port),
		portOf:     make(map[*simnet.Port]int),
		addrs:      make(map[simnet.Addr]uint32),
		nums:       []addrEntry{{route: -1}},
		defaultOut: -1,
	}
	s.ctrlFn = s.deliverCtrl
	n.Register(s)
	return s
}

// Name implements simnet.Node.
func (s *Switch) Name() string { return s.name }

// PipelineDelay implements simnet.StagedNode: a link hands the switch a
// packet FwdDelay after it arrived, and the switch processes it at once.
func (s *Switch) PipelineDelay() time.Duration { return s.cfg.FwdDelay }

// SetController wires the SDN controller.
func (s *Switch) SetController(c Controller) { s.controller = c }

// SetIngressSteer installs (or, with nil, removes) the ingress steering
// hook: a per-packet function consulted before the flow table, used by the
// stateless steering backend to apply controller-decided encapsulation
// without any per-flow table entries. The hook runs in kernel context and
// must not block or allocate on the steady-state path.
func (s *Switch) SetIngressSteer(fn func(sw *Switch, inPort int, pkt *simnet.Packet) bool) {
	s.ingressSteer = fn
}

// AddPort registers a switch port under the given number.
func (s *Switch) AddPort(num int, p *simnet.Port) {
	if _, dup := s.ports[num]; dup {
		panic(fmt.Sprintf("openflow: %s: duplicate port %d", s.name, num))
	}
	s.ports[num] = p
	s.portOf[p] = num
}

// AttachHost connects a host to the switch with one link, registers the
// switch port under num, and routes the host's address to it.
func (s *Switch) AttachHost(h *simnet.Host, num int, link simnet.LinkConfig) {
	_, sp := h.AttachTo(s, link)
	s.AddPort(num, sp)
	s.SetRoute(h.IP(), num)
}

// DetachPort forgets the port registered under num along with every route
// through it — the switch side of a host handover. The link itself is not
// touched here (the departing host severs it via Detach/MoveTo); the switch
// merely stops routing through the dead port, so a later AddPort may reuse
// the number (ping-pong handovers). A packet that arrived through the port
// before it was forgotten and is still in the pipeline stage keeps num as
// its in-port. Unknown port numbers are a no-op.
func (s *Switch) DetachPort(num int) {
	p, ok := s.ports[num]
	if !ok {
		return
	}
	now := s.net.K.Now()
	s.retired = slices.DeleteFunc(s.retired, func(r retiredPort) bool { return r.at+s.cfg.FwdDelay < now })
	s.retired = append(s.retired, retiredPort{port: p, num: num, at: now})
	delete(s.ports, num)
	delete(s.portOf, p)
	for i := range s.nums {
		if s.nums[i].route == num {
			s.nums[i].route = -1
		}
	}
	if s.defaultOut == num {
		s.defaultOut = -1
	}
}

// SetRoute adds a NORMAL-forwarding route for ip via port num (≥ 0).
func (s *Switch) SetRoute(ip simnet.Addr, num int) {
	if num < 0 {
		panic(fmt.Sprintf("openflow: %s: route to negative port %d", s.name, num))
	}
	s.nums[s.number(ip)].route = num
}

// number returns ip's address number, assigning the next one if no rule or
// route has named ip before.
func (s *Switch) number(ip simnet.Addr) uint32 {
	n, ok := s.addrs[ip]
	if !ok {
		n = uint32(len(s.nums))
		s.addrs[ip] = n
		s.nums = append(s.nums, addrEntry{route: -1})
	}
	return n
}

// SetDefaultRoute sets the port used when no route matches (the uplink
// toward the cloud).
func (s *Switch) SetDefaultRoute(num int) { s.defaultOut = num }

// Rules returns a copy of the current flow table in match order: highest
// priority first, earlier install first among equals. It gathers and sorts
// the whole table, O(n log n) — for diagnostics and tests; RuleCount gives
// the size.
func (s *Switch) Rules() []*FlowRule {
	out := make([]*FlowRule, 0, s.rules)
	for _, bucket := range s.sigs {
		for _, r := range bucket {
			for ; r != nil; r = r.sameKey {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	return out
}

// before reports whether r wins a lookup over o when both match.
func (r *FlowRule) before(o *FlowRule) bool {
	return r.Priority > o.Priority || (r.Priority == o.Priority && r.seq < o.seq)
}

// RuleCount returns the current flow-table size without copying the table —
// the occupancy signal the steering experiments sample per request.
func (s *Switch) RuleCount() int { return s.rules }

// AddFlow installs a rule (flow-mod ADD) and returns it, at a cost that does
// not depend on the table size. Among matching rules the highest priority
// wins; among equal priorities, the earlier install. Only rule's exported
// fields are read. A match port outside [0, 2^32) panics.
func (s *Switch) AddFlow(rule FlowRule) *FlowRule {
	if m := rule.Match; uint64(m.SrcPort) >= maxPort || uint64(m.DstPort) >= maxPort {
		panic(fmt.Sprintf("openflow: %s: match port out of range in %v", s.name, m))
	}
	var r *FlowRule
	if n := len(s.freeRules); n > 0 {
		r, s.freeRules[n-1] = s.freeRules[n-1], nil
		s.freeRules = s.freeRules[:n-1]
	} else {
		r = new(FlowRule)
	}
	*r = FlowRule{
		Priority: rule.Priority, Match: rule.Match, Actions: rule.Actions,
		IdleTimeout: rule.IdleTimeout, Cookie: rule.Cookie, NotifyRemoved: rule.NotifyRemoved,
	}
	s.FlowMods++
	s.nextCookie++
	if r.Cookie == 0 {
		r.Cookie = s.nextCookie
	}
	r.installed = s.net.K.Now()
	s.seq++
	r.seq = s.seq
	if s.rules++; s.rules > s.RuleHighWater {
		s.RuleHighWater = s.rules
	}
	s.indexAdd(r)
	g := r.group
	g.idle.Touch(r.installed)
	if r.IdleTimeout > 0 && !g.timed {
		g.timed = true
		g.idle.Start(s.net.K, r.IdleTimeout, g.expire)
	}
	return r
}

// expireGroup is a cookie's idle expiry: every rule of g leaves the table in
// this one event, and the oldest of them that set NotifyRemoved sends the
// cookie's flow-removed.
func (s *Switch) expireGroup(g *cookieGroup) {
	var asked *FlowRule
	for r := g.head; r != nil; r = r.sameCookie {
		if r.NotifyRemoved {
			asked = r
		}
	}
	if asked != nil {
		s.notifyRemoved(asked) // before removeGroup, which would recycle it
	}
	s.removeGroup(g)
}

// removeGroup takes every rule of g out of the table and returns how many
// there were.
func (s *Switch) removeGroup(g *cookieGroup) (n int) {
	for r := g.head; r != nil; r = g.head {
		s.removeRule(r)
		s.release(r)
		n++
	}
	return n
}

// notifyRemoved sends r's flow-removed to the controller; r stays out of the
// free list until the notice is delivered.
func (s *Switch) notifyRemoved(r *FlowRule) {
	if s.controller == nil {
		return
	}
	r.notifying = true
	s.sendCtrl(ctrlMsg{kind: msgFlowRemoved, rule: r})
}

// release puts a removed rule on the free list once nothing refers to it any
// more. Every path that clears a reference calls it again.
func (s *Switch) release(r *FlowRule) {
	if !r.notifying {
		s.freeRules = append(s.freeRules, r)
	}
}

// sendCtrl puts m on the controller channel, to arrive ControllerLatency
// from now.
func (s *Switch) sendCtrl(m ctrlMsg) {
	s.ctrlq = append(s.ctrlq, m)
	s.net.K.AfterFree(s.cfg.ControllerLatency, s.ctrlFn)
}

// deliverCtrl hands the oldest controller-channel message to its receiver:
// the controller for packet-in and flow-removed, this switch's pipeline for
// packet-out and table-out.
func (s *Switch) deliverCtrl() {
	m := s.ctrlq[s.ctrlHead]
	s.ctrlq[s.ctrlHead] = ctrlMsg{}
	s.ctrlHead++
	if s.ctrlHead == len(s.ctrlq) {
		s.ctrlq = s.ctrlq[:0]
		s.ctrlHead = 0
	}
	switch m.kind {
	case msgPacketIn:
		s.controller.HandlePacketIn(PacketIn{Switch: s, InPort: m.inPort, Packet: m.pkt})
	case msgFlowRemoved:
		s.controller.HandleFlowRemoved(s, m.rule)
		m.rule.notifying = false
		s.release(m.rule)
	case msgPacketOut:
		m.actions.apply(m.pkt)
		s.output(m.actions, -1, m.pkt, s.addrs[m.pkt.DstIP])
	case msgTableOut:
		s.process(-1, m.pkt)
	}
}

// removeRule takes a live rule out of the table: it unlinks r from its
// match-key chain and its cookie's group, dropping a chain's map entry — and
// a signature's map, and the group with its idle clock, so that a deleted
// rule leaves no event behind — when r was the last. The group goes back to
// the free list; r is the caller's to release.
func (s *Switch) removeRule(r *FlowRule) {
	r.removed = true
	s.rules--
	sig, key := signatureOf(r.Match), r.key
	bucket := s.sigs[sig]
	head := bucket[key]
	at := &head
	for *at != r {
		at = &(*at).sameKey
	}
	*at = r.sameKey
	if head != nil {
		bucket[key] = head
	} else if delete(bucket, key); len(bucket) == 0 {
		s.liveSigs &^= 1 << sig
	}
	g := r.group
	at = &g.head
	for *at != r {
		at = &(*at).sameCookie
	}
	*at = r.sameCookie
	if g.head == nil {
		g.idle.Stop()
		delete(s.byCookie, r.Cookie)
		s.freeGroups = append(s.freeGroups, g)
	}
}

// indexAdd numbers r's addresses and links r into its match-key chain and
// its cookie's group.
func (s *Switch) indexAdd(r *FlowRule) {
	m := &r.Match
	sig := signatureOf(*m)
	var src, dst uint32
	if sig&sigSrcIP != 0 {
		src = s.number(m.SrcIP)
		s.nums[src].asSrc |= 1 << sig
	}
	if sig&sigDstIP != 0 {
		dst = s.number(m.DstIP)
		s.nums[dst].asDst |= 1 << sig
	}
	if r.Actions.SetDstIP != "" {
		r.setDst = s.number(r.Actions.SetDstIP)
	}
	bucket := s.sigs[sig]
	if bucket == nil {
		bucket = make(map[matchKey]*FlowRule)
		s.sigs[sig] = bucket
	}
	s.liveSigs |= 1 << sig
	key := keyOf(sig, src, dst, uint32(m.SrcPort), uint32(m.DstPort))
	r.key = key
	// r is the newest rule, so in lookup order it goes behind every rule of
	// its priority or higher.
	head := bucket[key]
	at := &head
	for *at != nil && (*at).Priority >= r.Priority {
		at = &(*at).sameKey
	}
	r.sameKey, *at = *at, r
	bucket[key] = head
	g := s.byCookie[r.Cookie]
	if g == nil {
		if n := len(s.freeGroups); n > 0 {
			g, s.freeGroups[n-1] = s.freeGroups[n-1], nil
			s.freeGroups = s.freeGroups[:n-1]
			g.timed = false
		} else {
			g = &cookieGroup{}
			g.expire = func() { s.expireGroup(g) }
		}
		s.byCookie[r.Cookie] = g
	}
	r.group = g
	r.sameCookie, g.head = g.head, r
}

// lookup finds the highest-priority matching rule (first-installed among
// equals) via the signature index, and returns it with the number of the
// packet's destination. It numbers the packet's two addresses once, then
// probes each signature in probes: one map probe per signature that holds a
// rule the packet's addresses and ports could match, independent of the rule
// count.
func (s *Switch) lookup(pkt *simnet.Packet) (best *FlowRule, dst uint32) {
	src, dst := s.addrs[pkt.SrcIP], s.addrs[pkt.DstIP]
	sp, dp := uint32(pkt.SrcPort), uint32(pkt.DstPort)
	for live := s.probes(src, dst, pkt.SrcPort, pkt.DstPort); live != 0; live &= live - 1 {
		sig := sigKey(bits.TrailingZeros16(live))
		r := s.sigs[sig][keyOf(sig, src, dst, sp, dp)]
		if r != nil && (best == nil || r.before(best)) {
			best = r
		}
	}
	return best, dst
}

// probes returns the signatures a lookup probes for a packet from address
// number src to dst with the given ports: the live ones that wildcard the
// source or hold a rule that has named src as its source, likewise for the
// destination, and that key no port outside a key's 32 bits. An unnumbered
// address (0) is named by no rule, so it is probed only in signatures that
// wildcard it.
func (s *Switch) probes(src, dst uint32, srcPort, dstPort int) uint16 {
	live := s.liveSigs & (noSrcIP | s.nums[src].asSrc) & (noDstIP | s.nums[dst].asDst)
	if uint64(srcPort) >= maxPort {
		live &= noSrcPort
	}
	if uint64(dstPort) >= maxPort {
		live &= noDstPort
	}
	return live
}

// DeleteFlows removes all rules with the given cookie (flow-mod DELETE)
// and returns how many were removed, in O(rules removed). No flow-removed
// messages are sent.
func (s *Switch) DeleteFlows(cookie uint64) int {
	s.FlowMods++
	g := s.byCookie[cookie]
	if g == nil {
		return 0
	}
	return s.removeGroup(g)
}

// HandlePacket implements simnet.Node: run the packet through the table. A
// link calls it when the packet's pipeline stage ends (PipelineDelay), so
// lookup, counters, idle clocks and output all happen at that instant.
func (s *Switch) HandlePacket(in *simnet.Port, pkt *simnet.Packet) {
	s.process(s.inPort(in), pkt)
}

// inPort returns the number in is registered under: the one it had when the
// packet now leaving the pipeline arrived, if DetachPort has forgotten it
// since.
func (s *Switch) inPort(in *simnet.Port) int {
	if num, ok := s.portOf[in]; ok {
		return num
	}
	arrived := s.net.K.Now() - s.cfg.FwdDelay
	for _, r := range s.retired {
		if r.port == in && arrived <= r.at {
			return r.num
		}
	}
	return 0
}

func (s *Switch) process(inPort int, pkt *simnet.Packet) {
	if s.ingressSteer != nil && s.ingressSteer(s, inPort, pkt) {
		return
	}
	r, dst := s.lookup(pkt)
	if r != nil {
		r.packets++
		r.bytes += pkt.Size
		r.group.idle.Touch(s.net.K.Now())
		r.Actions.apply(pkt)
		if r.setDst != 0 {
			dst = r.setDst
		}
		s.output(r.Actions, inPort, pkt, dst)
		return
	}
	s.output(Actions{Output: s.cfg.MissBehavior}, inPort, pkt, dst)
}

// output carries out a's output; dst is the number of pkt's destination,
// which OutputNormal routes by.
func (s *Switch) output(a Actions, inPort int, pkt *simnet.Packet, dst uint32) {
	switch a.Output {
	case OutputDrop:
	case OutputPort:
		if p, ok := s.ports[a.OutPort]; ok {
			p.Send(pkt)
		}
	case OutputController:
		s.PacketsIn++
		if s.controller == nil {
			return
		}
		s.sendCtrl(ctrlMsg{kind: msgPacketIn, inPort: inPort, pkt: pkt})
	case OutputNormal:
		out := s.nums[dst].route
		if out < 0 {
			out = s.defaultOut
		}
		if out < 0 {
			return // drop: no route
		}
		if p, ok := s.ports[out]; ok {
			p.Send(pkt)
		}
	}
}

// ForwardNormal sends a (possibly rewritten) packet out via the static L3
// routes — the forwarding primitive the ingress steering hook uses after an
// in-place encap/decap. It is the OutputNormal leg of the pipeline without a
// table lookup and costs no allocation.
func (s *Switch) ForwardNormal(pkt *simnet.Packet) {
	s.output(Actions{Output: OutputNormal}, -1, pkt, s.addrs[pkt.DstIP])
}

// PacketOut re-injects a packet from the controller into the switch
// pipeline after the controller latency, applying the given actions
// directly (OFPT_PACKET_OUT with an action list). Use OutputNormal in a to
// route by destination, or run it through the table with TableOut.
func (s *Switch) PacketOut(pkt *simnet.Packet, a Actions) {
	s.sendCtrl(ctrlMsg{kind: msgPacketOut, pkt: pkt, actions: a})
}

// TableOut re-injects a packet to be processed by the (possibly updated)
// flow table — the OFPP_TABLE output of packet-out, which the paper's
// controller uses to release a held request after installing its flows.
func (s *Switch) TableOut(pkt *simnet.Packet) {
	s.sendCtrl(ctrlMsg{kind: msgTableOut, pkt: pkt})
}
