package openflow

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// removal is one flow-removed notification: which rule (by install
// sequence, the same on both sides of the model) and when it arrived.
type removal struct {
	seq uint64
	at  sim.Time
}

// refSwitch is the brute-force reference of the flow table: the ordered
// slice the switch used to keep (stable-sorted on every insert, scanned
// linearly on every removal, copied to find a cookie) and one Kernel.At
// closure per idle check, dead checks of deleted rules included. It has no
// cookie groups: what the rules of a cookie share is written on every one of
// them, and found again by scanning the table. It runs on its own kernel,
// stepped in lockstep with the switch's.
type refSwitch struct {
	k          *sim.Kernel
	latency    time.Duration
	table      []*refRule
	seq        uint64
	nextCookie uint64
	flowMods   uint64
	highWater  int
	removed    []removal
}

// refRule is a rule of the reference with the reference's own copy of what
// its cookie's rules share: the idle clock, whether an idle check runs for
// them, and which rule founded this occupancy of the cookie (an idle check
// outlived by its cookie's rules must not expire a later set of them).
type refRule struct {
	FlowRule
	lastUsed sim.Time
	timed    bool
	founder  uint64
}

// peers scans the table for the live rules of cookie; with a founder, only
// for those of that occupancy.
func (s *refSwitch) peers(cookie, founder uint64) []*refRule {
	var out []*refRule
	for _, t := range s.table {
		if t.Cookie == cookie && (founder == 0 || t.founder == founder) {
			out = append(out, t)
		}
	}
	return out
}

// touch restarts the idle clock of every rule of cookie.
func (s *refSwitch) touch(cookie uint64) {
	for _, t := range s.peers(cookie, 0) {
		t.lastUsed = s.k.Now()
	}
}

func (s *refSwitch) addFlow(rule FlowRule) *refRule {
	r := &refRule{FlowRule: rule}
	s.flowMods++
	s.nextCookie++
	if r.Cookie == 0 {
		r.Cookie = s.nextCookie
	}
	r.installed = s.k.Now()
	s.seq++
	r.seq = s.seq
	r.founder = r.seq
	if old := s.peers(r.Cookie, 0); len(old) > 0 {
		r.founder, r.timed = old[0].founder, old[0].timed
	}
	s.table = append(s.table, r)
	s.touch(r.Cookie)
	if len(s.table) > s.highWater {
		s.highWater = len(s.table)
	}
	sort.SliceStable(s.table, func(i, j int) bool { return s.table[i].Priority > s.table[j].Priority })
	if r.IdleTimeout > 0 && !r.timed {
		for _, t := range s.peers(r.Cookie, 0) {
			t.timed = true
		}
		s.scheduleIdleCheck(r.Cookie, r.founder, r.lastUsed, r.IdleTimeout)
	}
	if r.HardTimeout > 0 {
		s.k.AfterFree(r.HardTimeout, func() { s.expire(r) })
	}
	return r
}

// scheduleIdleCheck re-checks the rules of one occupancy of cookie at their
// next possible expiry; they idle out together, with one notification for
// the oldest that asked.
func (s *refSwitch) scheduleIdleCheck(cookie, founder uint64, lastUsed sim.Time, timeout time.Duration) {
	s.k.At(lastUsed+timeout, func() {
		live := s.peers(cookie, founder)
		if len(live) == 0 {
			return
		}
		if last := live[0].lastUsed; s.k.Now()-last < timeout {
			s.scheduleIdleCheck(cookie, founder, last, timeout)
			return
		}
		var oldest *refRule
		for _, t := range live {
			s.removeRule(t)
			if t.NotifyRemoved && (oldest == nil || t.seq < oldest.seq) {
				oldest = t
			}
		}
		if oldest != nil {
			s.notify(oldest)
		}
	})
}

func (s *refSwitch) expire(r *refRule) {
	if r.removed {
		return
	}
	s.removeRule(r)
	if r.NotifyRemoved {
		s.notify(r)
	}
}

func (s *refSwitch) notify(r *refRule) {
	s.k.AfterFree(s.latency, func() { s.removed = append(s.removed, removal{r.seq, s.k.Now()}) })
}

func (s *refSwitch) removeRule(r *refRule) {
	r.removed = true
	for i, t := range s.table {
		if t == r {
			s.table = append(s.table[:i], s.table[i+1:]...)
			return
		}
	}
}

func (s *refSwitch) deleteFlows(cookie uint64) int {
	s.flowMods++
	n := 0
	for _, r := range append([]*refRule(nil), s.table...) {
		if r.Cookie == cookie {
			s.removeRule(r)
			n++
		}
	}
	return n
}

// lookup is the definition of a table hit: the first rule in table order
// whose match accepts the packet.
func (s *refSwitch) lookup(pkt *simnet.Packet) *refRule {
	for _, r := range s.table {
		if r.Match.Matches(pkt) {
			return r
		}
	}
	return nil
}

// modelController logs the switch's flow-removed notifications.
type modelController struct {
	k       *sim.Kernel
	removed []removal
}

func (c *modelController) HandlePacketIn(PacketIn) {}
func (c *modelController) HandleFlowRemoved(_ *Switch, r *FlowRule) {
	c.removed = append(c.removed, removal{r.seq, c.k.Now()})
}

// stepBytes feeds the step interpreter: the bytes of a fuzz input, or an
// endless seeded stream.
type stepBytes struct {
	data []byte
	rng  *rand.Rand
}

func (b *stepBytes) next() (byte, bool) {
	if b.rng != nil {
		return byte(b.rng.Intn(256)), true
	}
	if len(b.data) == 0 {
		return 0, false
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v, true
}

// Small value domains, so that random rules collide on match keys, cookies
// and priorities, and random packets hit them.
var (
	modelIPs      = []simnet.Addr{"", "10.0.0.1", "10.0.0.2", "10.0.0.3"}
	modelPorts    = []int{0, 80, 443, 8080}
	modelPrios    = []int{1, 5, 5, 9}
	modelIdles    = []time.Duration{0, 0, 50 * time.Millisecond, 200 * time.Millisecond}
	modelHards    = []time.Duration{0, 0, 0, 300 * time.Millisecond}
	modelAdvances = []time.Duration{time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond, 250 * time.Millisecond}
)

// modelTableCap bounds the table so the per-step full comparison stays cheap:
// an add on a full table becomes a delete.
const modelTableCap = 160

// flowTableModel drives a switch and the reference through the same steps.
type flowTableModel struct {
	t    *testing.T
	sw   *Switch
	ctrl *modelController
	ref  *refSwitch
	src  *stepBytes
	step int
}

func newFlowTableModel(t *testing.T, src *stepBytes) *flowTableModel {
	cfg := Config{ControllerLatency: 300 * time.Microsecond, MissBehavior: OutputDrop}
	k := sim.New(1)
	sw := NewSwitch(simnet.NewNetwork(k), "sw", cfg)
	ctrl := &modelController{k: k}
	sw.SetController(ctrl)
	ref := &refSwitch{k: sim.New(1), latency: cfg.ControllerLatency}
	return &flowTableModel{t: t, sw: sw, ctrl: ctrl, ref: ref, src: src}
}

// run interprets up to steps steps (fewer if the bytes run out), checking
// the switch against the reference after each.
func (m *flowTableModel) run(steps int) {
	for m.step = 0; m.step < steps; m.step++ {
		op, ok := m.src.next()
		if !ok {
			return
		}
		a, _ := m.src.next()
		b, _ := m.src.next()
		c, _ := m.src.next()
		switch op % 8 {
		case 0, 1, 2:
			if m.sw.RuleCount() < modelTableCap {
				m.add(a, b, c)
			} else {
				m.delete(a, b)
			}
		case 3:
			m.delete(a, b)
		case 4:
			m.advance(modelAdvances[a%4])
		case 5, 6:
			m.traffic(a, b)
		case 7:
			pkt := m.packet(a, b)
			m.sameRule("lookup", m.sw.lookup(pkt), m.ref.lookup(pkt))
		}
		m.check()
		if m.t.Failed() {
			m.t.Fatalf("model diverged at step %d (op %d, args %d %d %d)", m.step, op%8, a, b, c)
		}
	}
}

func (m *flowTableModel) add(a, b, c byte) {
	rule := FlowRule{
		Priority: modelPrios[a&3],
		Match: Match{
			SrcIP: modelIPs[a>>2&3], DstIP: modelIPs[a>>4&3],
			SrcPort: modelPorts[a>>6&3], DstPort: modelPorts[b&3],
		},
		Actions:       Actions{Output: OutputDrop},
		IdleTimeout:   modelIdles[b>>2&3],
		HardTimeout:   modelHards[b>>4&3],
		NotifyRemoved: b>>6&1 == 1,
	}
	if c&1 == 1 {
		rule.Cookie = 1000 + uint64(c>>1&7) // one of eight shared cookies
	}
	m.sameRule("AddFlow", m.sw.AddFlow(rule), m.ref.addFlow(rule))
}

// delete removes by one of the shared cookies or by the cookie of some
// installed rule (often an auto-assigned one).
func (m *flowTableModel) delete(a, b byte) {
	cookie := 1000 + uint64(a>>1&7)
	if n := len(m.ref.table); a&1 == 1 && n > 0 {
		cookie = m.ref.table[int(b)%n].Cookie
	}
	if got, want := m.sw.DeleteFlows(cookie), m.ref.deleteFlows(cookie); got != want {
		m.t.Errorf("DeleteFlows(%d) removed %d rules, reference %d", cookie, got, want)
	}
}

func (m *flowTableModel) advance(d time.Duration) {
	m.sw.net.K.RunUntil(m.sw.net.K.Now() + d)
	m.ref.k.RunUntil(m.ref.k.Now() + d)
}

func (m *flowTableModel) packet(a, b byte) *simnet.Packet {
	return &simnet.Packet{
		Kind:  simnet.KindDATA,
		SrcIP: modelIPs[1+a%3], DstIP: modelIPs[1+a>>2%3],
		SrcPort: modelPorts[1+a>>4%3], DstPort: modelPorts[1+b%3],
		Size: 100,
	}
}

// traffic runs one packet through the pipeline, refreshing the idle clock
// and the counters of the rule it hits.
func (m *flowTableModel) traffic(a, b byte) {
	pkt := m.packet(a, b)
	want := m.ref.lookup(pkt)
	if want != nil {
		want.packets++
		want.bytes += pkt.Size
		m.ref.touch(want.Cookie)
	}
	m.sw.process(-1, pkt)
}

func (m *flowTableModel) sameRule(what string, got *FlowRule, want *refRule) {
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil:
		m.t.Errorf("%s: got %v, reference %v", what, got, want)
	case got.seq != want.seq || got.Cookie != want.Cookie || got.Priority != want.Priority ||
		got.Match != want.Match || got.group.idle.Last() != want.lastUsed || got.installed != want.installed ||
		got.packets != want.packets || got.bytes != want.bytes || got.removed != want.removed:
		m.t.Errorf("%s: got rule %+v, reference %+v", what, *got, *want)
	}
}

// check compares every observable of the switch with the reference, and the
// index structures with the table they must describe.
func (m *flowTableModel) check() {
	t, sw, ref := m.t, m.sw, m.ref
	if now, want := sw.net.K.Now(), ref.k.Now(); now != want {
		t.Errorf("clock %v, reference %v", now, want)
	}
	rules := sw.Rules()
	if len(rules) != len(ref.table) || sw.RuleCount() != len(ref.table) {
		t.Errorf("Rules() has %d rules, RuleCount() %d, reference %d", len(rules), sw.RuleCount(), len(ref.table))
		return
	}
	for i, r := range rules {
		m.sameRule("Rules() order", r, ref.table[i])
	}
	if sw.RuleHighWater != ref.highWater || sw.FlowMods != ref.flowMods {
		t.Errorf("RuleHighWater %d FlowMods %d, reference %d %d", sw.RuleHighWater, sw.FlowMods, ref.highWater, ref.flowMods)
	}
	if len(m.ctrl.removed) != len(ref.removed) {
		t.Errorf("%d flow-removed notifications, reference %d", len(m.ctrl.removed), len(ref.removed))
		return
	}
	for i, got := range m.ctrl.removed {
		if got != ref.removed[i] {
			t.Errorf("flow-removed %d: rule %d at %v, reference rule %d at %v", i, got.seq, got.at, ref.removed[i].seq, ref.removed[i].at)
		}
	}

	// The signature array and the cookie index hold exactly the live rules.
	indexed, cookies := 0, map[uint64]int{}
	for sig, bucket := range sw.sigs {
		if (len(bucket) > 0) != (sw.liveSigs>>sig&1 == 1) {
			t.Errorf("signature %04b: %d keys, live bit %d", sig, len(bucket), sw.liveSigs>>sig&1)
		}
		for key, r := range bucket {
			for prev := (*FlowRule)(nil); r != nil; prev, r = r, r.sameKey {
				indexed++
				cookies[r.Cookie]++
				if r.removed || signatureOf(r.Match) != sigKey(sig) ||
					keyOf(sigKey(sig), r.Match.SrcIP, r.Match.DstIP, r.Match.SrcPort, r.Match.DstPort) != key {
					t.Errorf("rule %d filed under the wrong key, or removed", r.seq)
				}
				if prev != nil && !prev.before(r) {
					t.Errorf("rule %d chained ahead of rule %d", prev.seq, r.seq)
				}
			}
		}
	}
	if indexed != len(rules) || len(cookies) != len(sw.byCookie) {
		t.Errorf("index holds %d rules under %d cookies, cookie index has %d cookies, table %d rules",
			indexed, len(cookies), len(sw.byCookie), len(rules))
	}
	for cookie, g := range sw.byCookie {
		n := 0
		for r := g.head; r != nil; r = r.sameCookie {
			if n++; r.Cookie != cookie || r.removed || r.group != g {
				t.Errorf("rule %d (cookie %d, removed %v) chained under cookie %d", r.seq, r.Cookie, r.removed, cookie)
			}
		}
		if n != cookies[cookie] {
			t.Errorf("cookie %d chains %d rules, table has %d", cookie, n, cookies[cookie])
		}
	}
}

// drain deletes every rule and checks that the table leaves nothing behind:
// no key in a signature map, no cookie entry, no pending idle check.
func (m *flowTableModel) drain() {
	for _, r := range m.sw.Rules() {
		if !r.removed {
			m.sw.DeleteFlows(r.Cookie)
			m.ref.deleteFlows(r.Cookie)
		}
	}
	m.check()
	for sig, bucket := range m.sw.sigs {
		if len(bucket) != 0 {
			m.t.Errorf("drained table kept %d keys under signature %04b", len(bucket), sig)
		}
	}
	if m.sw.liveSigs != 0 || len(m.sw.byCookie) != 0 {
		m.t.Errorf("drained table left live signatures %016b, %d cookies", m.sw.liveSigs, len(m.sw.byCookie))
	}
	// What is still queued are hard timeouts and notifications in flight;
	// a second outlasts them all.
	m.advance(time.Second)
	m.check()
	if n := m.sw.net.K.Pending(); n != 0 {
		m.t.Errorf("%d events pending after the drained table ran out", n)
	}
}

// TestFlowTableMatchesBruteForce is the model-based check of the flow
// table's write path: random adds (mixed priorities, shared and auto
// cookies, idle, hard and no timeouts), deletes, clock advances that expire
// rules, traffic that refreshes idle clocks and lookups, with the switch
// compared against the ordered-slice reference after every step.
func TestFlowTableMatchesBruteForce(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	for seed := int64(1); seed <= 4; seed++ {
		m := newFlowTableModel(t, &stepBytes{rng: rand.New(rand.NewSource(seed))})
		m.run(steps)
		if m.step != steps {
			t.Fatalf("seed %d stopped after %d steps", seed, m.step)
		}
		if len(m.ctrl.removed) == 0 || m.sw.RuleHighWater < modelTableCap/2 {
			t.Fatalf("seed %d: %d notifications, high water %d: the steps no longer exercise the table",
				seed, len(m.ctrl.removed), m.sw.RuleHighWater)
		}
		m.drain()
	}
}

// FuzzFlowTable drives the same step interpreter from fuzzer-chosen bytes
// (four per step).
func FuzzFlowTable(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		steps := make([]byte, 4*200)
		rand.New(rand.NewSource(seed)).Read(steps)
		f.Add(steps)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		m := newFlowTableModel(t, &stepBytes{data: steps})
		m.run(len(steps))
		m.drain()
	})
}
