package openflow

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

type rig struct {
	k      *sim.Kernel
	n      *simnet.Network
	sw     *Switch
	client *simnet.Host
	edge   *simnet.Host
	cloud  *simnet.Host
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := NewSwitch(n, "gnb", DefaultConfig())
	client := simnet.NewHost(n, "ue", "10.1.0.1")
	edge := simnet.NewHost(n, "edge", "10.0.0.1")
	cloud := simnet.NewHost(n, "cloud", "203.0.113.10")
	link := simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: simnet.Gbps}
	sw.AttachHost(client, 1, link)
	sw.AttachHost(edge, 2, link)
	sw.AttachHost(cloud, 3, simnet.LinkConfig{Latency: 20 * time.Millisecond, Bandwidth: simnet.Gbps})
	sw.SetDefaultRoute(3)
	return &rig{k: k, n: n, sw: sw, client: client, edge: edge, cloud: cloud}
}

type recordingController struct {
	packetIns []PacketIn
	removed   []*FlowRule
	onPktIn   func(ev PacketIn)
}

func (c *recordingController) HandlePacketIn(ev PacketIn) {
	c.packetIns = append(c.packetIns, ev)
	if c.onPktIn != nil {
		c.onPktIn(ev)
	}
}

func (c *recordingController) HandleFlowRemoved(sw *Switch, r *FlowRule) {
	c.removed = append(c.removed, r)
}

func serve(h *simnet.Host, port int, body string) {
	h.ServeHTTPAsync(port, func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
		c.Respond(&simnet.HTTPResponse{Status: 200, Body: body})
	})
}

func TestNormalForwarding(t *testing.T) {
	rg := newRig(t)
	serve(rg.edge, 80, "edge")
	var body any
	rg.k.Go("client", func(p *sim.Proc) {
		res, err := rg.client.HTTPGet(p, rg.edge.IP(), 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		body = res.Resp.Body
	})
	rg.k.Run()
	if body != "edge" {
		t.Fatalf("body = %v", body)
	}
}

func TestDefaultRouteTowardCloud(t *testing.T) {
	rg := newRig(t)
	serve(rg.cloud, 80, "cloud")
	var body any
	rg.k.Go("client", func(p *sim.Proc) {
		// 198.x is not in the route table; the default route reaches the
		// cloud host only if the address matches the cloud host, so use
		// the cloud address but delete its explicit route first.
		res, err := rg.client.HTTPGet(p, rg.cloud.IP(), 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		body = res.Resp.Body
	})
	rg.k.Run()
	if body != "cloud" {
		t.Fatalf("body = %v", body)
	}
}

func TestRedirectRewritesTransparently(t *testing.T) {
	// The transparent-access core: client talks to the cloud VIP, flows
	// rewrite to the edge instance and back; the client never sees the
	// edge address.
	rg := newRig(t)
	serve(rg.edge, 32000, "from-edge")
	vip := simnet.Addr("203.0.113.99")
	// Forward flow: VIP:80 -> edge:32000.
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions: Actions{
			SetDstIP: rg.edge.IP(), SetDstPort: 32000,
			Output: OutputPort, OutPort: rg.sw.nums[rg.sw.addrs[rg.edge.IP()]].route,
		},
	})
	// Reverse flow: edge:32000 -> appears as VIP:80.
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{SrcIP: rg.edge.IP(), SrcPort: 32000},
		Actions: Actions{
			SetSrcIP: vip, SetSrcPort: 80,
			Output: OutputNormal,
		},
	})
	var res *simnet.HTTPResult
	var err error
	rg.k.Go("client", func(p *sim.Proc) {
		res, err = rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Body != "from-edge" {
		t.Fatalf("body = %v", res.Resp.Body)
	}
	// Edge path: should be ~sub-ms, far faster than the 20ms cloud link.
	if res.Total > 10*time.Millisecond {
		t.Fatalf("redirected request took %v, not an edge path", res.Total)
	}
}

func TestPriorityOrder(t *testing.T) {
	rg := newRig(t)
	serve(rg.edge, 81, "specific")
	serve(rg.cloud, 80, "general")
	vip := simnet.Addr("203.0.113.99")
	// Low priority: anything to vip -> cloud... (drop here for contrast)
	rg.sw.AddFlow(FlowRule{
		Priority: 10,
		Match:    Match{DstIP: vip},
		Actions:  Actions{Output: OutputDrop},
	})
	// High priority: vip:80 -> edge:81.
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions: Actions{
			SetDstIP: rg.edge.IP(), SetDstPort: 81,
			Output: OutputPort, OutPort: rg.sw.nums[rg.sw.addrs[rg.edge.IP()]].route,
		},
	})
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{SrcIP: rg.edge.IP(), SrcPort: 81},
		Actions:  Actions{SetSrcIP: vip, SetSrcPort: 80, Output: OutputNormal},
	})
	var body any
	rg.k.Go("client", func(p *sim.Proc) {
		res, err := rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		body = res.Resp.Body
	})
	rg.k.Run()
	if body != "specific" {
		t.Fatalf("body = %v, high-priority rule did not win", body)
	}
}

func TestPacketInOnRegisteredAddress(t *testing.T) {
	rg := newRig(t)
	ctrl := &recordingController{}
	rg.sw.SetController(ctrl)
	vip := simnet.Addr("203.0.113.99")
	rg.sw.AddFlow(FlowRule{
		Priority: 50,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions:  Actions{Output: OutputController},
	})
	rg.client.HTTPGetAsync(vip, 80, &simnet.HTTPRequest{}, 100*time.Millisecond, func(*simnet.HTTPResult, error) {})
	rg.k.Run()
	if len(ctrl.packetIns) != 1 {
		t.Fatalf("packet-ins = %d, want 1 (held SYN)", len(ctrl.packetIns))
	}
	ev := ctrl.packetIns[0]
	if ev.Packet.Kind != simnet.KindSYN || ev.Packet.DstIP != vip {
		t.Fatalf("packet-in = %v", ev.Packet)
	}
	if ev.InPort != 1 {
		t.Fatalf("in-port = %d, want 1", ev.InPort)
	}
	if rg.sw.PacketsIn != 1 {
		t.Fatalf("PacketsIn = %d", rg.sw.PacketsIn)
	}
}

// TestHandoverKeepsPipelineInPort: a packet that reached the switch before
// its sender handed over is processed when its pipeline stage ends, under the
// in-port it arrived on although DetachPort has forgotten the port by then;
// one still propagating when the link is severed dies on the link.
func TestHandoverKeepsPipelineInPort(t *testing.T) {
	// The SYN reaches the switch after 200 µs of latency and 512 ns of
	// serialization, and leaves the 20 µs pipeline at 220.512 µs.
	const arrive = 200*time.Microsecond + 512
	for _, tc := range []struct {
		name      string
		handover  time.Duration
		packetIns int
	}{
		{"in the pipeline stage", arrive + 10*time.Microsecond, 1},
		{"in propagation", arrive - 100*time.Microsecond, 0},
	} {
		rg := newRig(t)
		ctrl := &recordingController{}
		rg.sw.SetController(ctrl)
		vip := simnet.Addr("203.0.113.99")
		rg.sw.AddFlow(FlowRule{Priority: 50, Match: Match{DstIP: vip, DstPort: 80}, Actions: Actions{Output: OutputController}})
		rg.client.HTTPGetAsync(vip, 80, &simnet.HTTPRequest{}, 100*time.Millisecond, func(*simnet.HTTPResult, error) {})
		rg.k.At(tc.handover, func() {
			rg.sw.DetachPort(1)
			rg.client.Detach()
		})
		rg.k.Run()
		if len(ctrl.packetIns) != tc.packetIns || rg.n.DetachDrops != uint64(1-tc.packetIns) {
			t.Fatalf("%s: %d packet-ins, %d detach drops, want %d, %d",
				tc.name, len(ctrl.packetIns), rg.n.DetachDrops, tc.packetIns, 1-tc.packetIns)
		}
		if tc.packetIns > 0 && ctrl.packetIns[0].InPort != 1 {
			t.Errorf("%s: in-port %d, want 1, the port the SYN arrived on", tc.name, ctrl.packetIns[0].InPort)
		}
	}
}

func TestHeldPacketReleasedByTableOut(t *testing.T) {
	// The on-demand-with-waiting mechanism: SYN is held at the controller,
	// flows get installed, then the SYN is released through the table.
	rg := newRig(t)
	vip := simnet.Addr("203.0.113.99")
	serve(rg.edge, 32000, "deployed")
	ctrl := &recordingController{}
	ctrl.onPktIn = func(ev PacketIn) {
		// Install redirect flows (higher priority than the punt rule).
		ev.Switch.AddFlow(FlowRule{
			Priority: 100,
			Match:    Match{DstIP: vip, DstPort: 80},
			Actions: Actions{
				SetDstIP: rg.edge.IP(), SetDstPort: 32000,
				Output: OutputPort, OutPort: ev.Switch.nums[ev.Switch.addrs[rg.edge.IP()]].route,
			},
		})
		ev.Switch.AddFlow(FlowRule{
			Priority: 100,
			Match:    Match{SrcIP: rg.edge.IP(), SrcPort: 32000},
			Actions:  Actions{SetSrcIP: vip, SetSrcPort: 80, Output: OutputNormal},
		})
		ev.Switch.TableOut(ev.Packet)
	}
	rg.sw.SetController(ctrl)
	rg.sw.AddFlow(FlowRule{
		Priority: 50,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions:  Actions{Output: OutputController},
	})
	var body any
	rg.k.Go("client", func(p *sim.Proc) {
		res, err := rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		body = res.Resp.Body
	})
	rg.k.Run()
	if body != "deployed" {
		t.Fatalf("body = %v", body)
	}
	// Only the first SYN hits the controller; subsequent packets of the
	// conversation match the installed flow.
	if len(ctrl.packetIns) != 1 {
		t.Fatalf("packet-ins = %d, want 1", len(ctrl.packetIns))
	}
}

func TestIdleTimeoutExpiresAndNotifies(t *testing.T) {
	rg := newRig(t)
	ctrl := &recordingController{}
	rg.sw.SetController(ctrl)
	r := rg.sw.AddFlow(FlowRule{
		Priority:      100,
		Match:         Match{DstIP: "203.0.113.99"},
		Actions:       Actions{Output: OutputDrop},
		IdleTimeout:   500 * time.Millisecond,
		NotifyRemoved: true,
	})
	rg.k.RunUntil(2 * time.Second)
	if len(rg.sw.Rules()) != 0 {
		t.Fatal("idle rule not expired")
	}
	if len(ctrl.removed) != 1 || ctrl.removed[0] != r {
		t.Fatalf("flow-removed = %v", ctrl.removed)
	}
}

func TestIdleTimeoutRefreshedByTraffic(t *testing.T) {
	rg := newRig(t)
	vip := simnet.Addr("203.0.113.99")
	serve(rg.edge, 32000, "x")
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions: Actions{
			SetDstIP: rg.edge.IP(), SetDstPort: 32000,
			Output: OutputPort, OutPort: rg.sw.nums[rg.sw.addrs[rg.edge.IP()]].route,
		},
		IdleTimeout: 300 * time.Millisecond,
	})
	rg.sw.AddFlow(FlowRule{
		Priority:    100,
		Match:       Match{SrcIP: rg.edge.IP(), SrcPort: 32000},
		Actions:     Actions{SetSrcIP: vip, SetSrcPort: 80, Output: OutputNormal},
		IdleTimeout: 300 * time.Millisecond,
	})
	// Traffic every 200ms keeps the flow alive past 3x the idle timeout.
	rg.k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0); err != nil {
				t.Errorf("request %d failed: %v (flow expired early?)", i, err)
				return
			}
			p.Sleep(200 * time.Millisecond)
		}
	})
	rg.k.RunUntil(5 * time.Second)
	if len(rg.sw.Rules()) != 0 {
		t.Fatal("flows should expire after traffic stops")
	}
}

func TestDeleteFlowsByCookie(t *testing.T) {
	rg := newRig(t)
	rg.sw.AddFlow(FlowRule{Priority: 1, Cookie: 7, Match: Match{DstIP: "a"}, Actions: Actions{Output: OutputDrop}})
	rg.sw.AddFlow(FlowRule{Priority: 1, Cookie: 7, Match: Match{DstIP: "b"}, Actions: Actions{Output: OutputDrop}})
	rg.sw.AddFlow(FlowRule{Priority: 1, Cookie: 8, Match: Match{DstIP: "c"}, Actions: Actions{Output: OutputDrop}})
	if n := rg.sw.DeleteFlows(7); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if len(rg.sw.Rules()) != 1 {
		t.Fatalf("rules left = %d, want 1", len(rg.sw.Rules()))
	}
}

// TestDeleteFlowsCancelsIdleChecks pins the dead-timer contract: a cookie
// arms one idle check however many rules share it, and the rules removed by
// DeleteFlows take it with them, so the kernel's pending count returns to
// where it was and the clock is never dragged to the deleted rules'
// deadlines.
func TestDeleteFlowsCancelsIdleChecks(t *testing.T) {
	rg := newRig(t)
	rg.k.RunUntil(time.Second)
	pending := rg.k.Pending()
	const n = 50
	for i := 0; i < n; i++ {
		rg.sw.AddFlow(FlowRule{
			Priority:    100,
			Cookie:      uint64(1 + i/2), // pairs share a cookie, as redirect pairs do
			Match:       Match{SrcIP: simnet.Addr(fmt.Sprintf("10.1.0.%d", i)), DstIP: "203.0.113.99", DstPort: 80},
			Actions:     Actions{Output: OutputDrop},
			IdleTimeout: time.Minute,
		})
	}
	if got := rg.k.Pending(); got != pending+n/2 {
		t.Fatalf("pending after %d installs = %d, want %d: one idle check per cookie", n, got, pending+n/2)
	}
	for i := 0; i < n/2; i++ {
		if got := rg.sw.DeleteFlows(uint64(1 + i)); got != 2 {
			t.Fatalf("DeleteFlows(%d) removed %d rules, want 2", 1+i, got)
		}
	}
	if got := rg.k.Pending(); got != pending {
		t.Fatalf("pending after deleting every rule = %d, want %d: dead idle checks left behind", got, pending)
	}
	rg.k.Run()
	if now := rg.k.Now(); now != time.Second {
		t.Fatalf("clock ran to %v on dead idle checks, want it to stay at 1s", now)
	}
}

func TestFlowStatsCount(t *testing.T) {
	rg := newRig(t)
	serve(rg.edge, 32000, "x")
	vip := simnet.Addr("203.0.113.99")
	fwd := rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{DstIP: vip, DstPort: 80},
		Actions: Actions{
			SetDstIP: rg.edge.IP(), SetDstPort: 32000,
			Output: OutputPort, OutPort: rg.sw.nums[rg.sw.addrs[rg.edge.IP()]].route,
		},
	})
	rg.sw.AddFlow(FlowRule{
		Priority: 100,
		Match:    Match{SrcIP: rg.edge.IP(), SrcPort: 32000},
		Actions:  Actions{SetSrcIP: vip, SetSrcPort: 80, Output: OutputNormal},
	})
	rg.k.Go("client", func(p *sim.Proc) {
		rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	pkts, bytes := fwd.Stats()
	// SYN + DATA + FIN in the forward direction.
	if pkts != 3 || bytes == 0 {
		t.Fatalf("stats = %d pkts %d bytes", pkts, bytes)
	}
}

// TestMatchWildcards: a zero field matches anything, and prints as *.
func TestMatchWildcards(t *testing.T) {
	pkt := &simnet.Packet{SrcIP: "1.1.1.1", DstIP: "2.2.2.2", SrcPort: 5, DstPort: 80}
	cases := []struct {
		m    Match
		want bool
		str  string
	}{
		{Match{}, true, "src=*:* dst=*:*"},
		{Match{DstIP: "2.2.2.2"}, true, "src=*:* dst=2.2.2.2:*"},
		{Match{DstIP: "2.2.2.2", DstPort: 80}, true, "src=*:* dst=2.2.2.2:80"},
		{Match{DstIP: "9.9.9.9"}, false, "src=*:* dst=9.9.9.9:*"},
		{Match{SrcPort: 5, DstPort: 80, SrcIP: "1.1.1.1", DstIP: "2.2.2.2"}, true, "src=1.1.1.1:5 dst=2.2.2.2:80"},
		{Match{SrcPort: 6}, false, "src=*:6 dst=*:*"},
		{Match{SrcIP: "1.1.1.1", DstIP: "2.2.2.2", DstPort: 80}, true, "src=1.1.1.1:* dst=2.2.2.2:80"},
	}
	for _, c := range cases {
		if got := c.m.Matches(pkt); got != c.want {
			t.Errorf("%v.Matches = %v, want %v", c.m, got, c.want)
		}
		if got := c.m.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

// TestAddFlowRejectsPortsBeyondKey: a match key holds a port in 32 bits, so
// AddFlow refuses a port it would truncate (or a negative one) rather than
// install a rule that matches another port; the largest port that fits is
// installed and matched exactly.
func TestAddFlowRejectsPortsBeyondKey(t *testing.T) {
	sw := NewSwitch(simnet.NewNetwork(sim.New(1)), "sw", Config{})
	for _, m := range []Match{{DstPort: maxPort + 80}, {SrcPort: maxPort}, {SrcPort: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddFlow(%v) installed a port outside [0, 2^32)", m)
				}
			}()
			sw.AddFlow(FlowRule{Match: m})
		}()
	}
	r := sw.AddFlow(FlowRule{Match: Match{DstPort: maxPort - 1}})
	for port, want := range map[int]*FlowRule{maxPort - 1: r, 2*maxPort - 1: nil, -1: nil} {
		if got, _ := sw.lookup(&simnet.Packet{DstPort: port}); got != want {
			t.Errorf("packet to port %d hit %v, want %v", port, got, want)
		}
	}
}

func TestEqualPriorityFirstInstalledWins(t *testing.T) {
	rg := newRig(t)
	serve(rg.edge, 81, "first")
	serve(rg.edge, 82, "second")
	vip := simnet.Addr("203.0.113.99")
	mk := func(port int) {
		rg.sw.AddFlow(FlowRule{
			Priority: 100,
			Match:    Match{DstIP: vip, DstPort: 80},
			Actions: Actions{
				SetDstIP: rg.edge.IP(), SetDstPort: port,
				Output: OutputPort, OutPort: rg.sw.nums[rg.sw.addrs[rg.edge.IP()]].route,
			},
		})
		rg.sw.AddFlow(FlowRule{
			Priority: 100,
			Match:    Match{SrcIP: rg.edge.IP(), SrcPort: port},
			Actions:  Actions{SetSrcIP: vip, SetSrcPort: 80, Output: OutputNormal},
		})
	}
	mk(81)
	mk(82)
	var body any
	rg.k.Go("client", func(p *sim.Proc) {
		res, err := rg.client.HTTPGet(p, vip, 80, &simnet.HTTPRequest{}, 0)
		if err == nil {
			body = res.Resp.Body
		}
	})
	rg.k.Run()
	if body != "first" {
		t.Fatalf("body = %v, want first-installed rule to win", body)
	}
}

// Property: for random rule sets, the rule applied to a packet is always
// the highest-priority matching rule, first-installed among equals.
func TestQuickHighestPriorityWins(t *testing.T) {
	ips := []simnet.Addr{"1.1.1.1", "2.2.2.2", "3.3.3.3", ""}
	f := func(spec []uint16, pktSel uint8) bool {
		if len(spec) == 0 || len(spec) > 24 {
			return true
		}
		k := sim.New(2)
		n := simnet.NewNetwork(k)
		sw := NewSwitch(n, "sw", Config{})
		type installed struct {
			prio  int
			match Match
			idx   int
		}
		var rules []installed
		for i, raw := range spec {
			m := Match{
				DstIP:   ips[int(raw)%len(ips)],
				DstPort: int(raw>>4) % 3, // 0 (wildcard), 1, 2
			}
			prio := int(raw>>8) % 8
			sw.AddFlow(FlowRule{
				Priority: prio,
				Match:    m,
				Actions:  Actions{Output: OutputDrop},
			})
			rules = append(rules, installed{prio: prio, match: m, idx: i})
		}
		pkt := &simnet.Packet{
			Kind:    simnet.KindDATA,
			SrcIP:   "9.9.9.9",
			DstIP:   ips[int(pktSel)%3], // never the wildcard as a dst
			DstPort: int(pktSel>>2) % 3,
			Size:    100,
		}
		// Expected winner by the spec's rules.
		best := -1
		for i, r := range rules {
			if !r.match.Matches(pkt) {
				continue
			}
			if best == -1 || r.prio > rules[best].prio {
				best = i
			}
		}
		sw.process(-1, pkt)
		// Find which rule counted the packet.
		got := -1
		for i, r := range sw.Rules() {
			if p, _ := r.Stats(); p > 0 {
				// Map back to installation order via cookie (assigned
				// sequentially from 1).
				got = int(r.Cookie) - 1
				_ = i
			}
		}
		if best == -1 {
			return got == -1
		}
		if got == -1 {
			return false
		}
		return rules[got].prio == rules[best].prio && rules[got].match.Matches(pkt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// warmReplayTable is the table a busy gNB switch holds under warm-replay's
// traffic: a punt rule per service VIP, and for each of 2 000 clients the
// redirect pair steer.OpenFlow installs, a forward rule (client to VIP:80,
// rewritten to an instance) and a reverse rule (instance to client). It
// returns a packet of each kind the benchmark and the probe test look up: a
// client's request to its VIP, the instance's answer, and one between two
// addresses no rule names.
func warmReplayTable() (sw *Switch, forward, reverse, unnamed *simnet.Packet) {
	sw = NewSwitch(simnet.NewNetwork(sim.New(2)), "sw", Config{})
	vip := func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("203.0.113.%d", 10+i)) }
	instance := func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("10.0.0.%d", 10+i%8)) }
	for i := 0; i < 42; i++ {
		sw.AddFlow(FlowRule{Priority: 50, Match: Match{DstIP: vip(i), DstPort: 80}, Actions: Actions{Output: OutputController}})
	}
	for i := 0; i < 2000; i++ {
		client := simnet.Addr(fmt.Sprintf("10.1.%d.%d", i/250, i%250))
		sw.AddFlow(FlowRule{
			Priority: 100, Cookie: uint64(i + 1),
			Match:   Match{SrcIP: client, DstIP: vip(i % 42), DstPort: 80},
			Actions: Actions{SetDstIP: instance(i), SetDstPort: 32000 + i%42, Output: OutputNormal},
		})
		sw.AddFlow(FlowRule{
			Priority: 100, Cookie: uint64(i + 1),
			Match:   Match{SrcIP: instance(i), SrcPort: 32000 + i%42, DstIP: client},
			Actions: Actions{SetSrcIP: vip(i % 42), SetSrcPort: 80, Output: OutputNormal},
		})
	}
	const i = 3*250 + 17
	forward = &simnet.Packet{Kind: simnet.KindDATA, SrcIP: "10.1.3.17", DstIP: vip(i % 42), SrcPort: 40000, DstPort: 80, Size: 100}
	reverse = &simnet.Packet{Kind: simnet.KindDATA, SrcIP: instance(i), DstIP: "10.1.3.17", SrcPort: 32000 + i%42, DstPort: 40000, Size: 100}
	unnamed = &simnet.Packet{Kind: simnet.KindDATA, SrcIP: "192.0.2.1", DstIP: "192.0.2.2", SrcPort: 40000, DstPort: 80, Size: 100}
	return sw, forward, reverse, unnamed
}

// BenchmarkFlowTableLookup is the ledger's lookup unit on warmReplayTable:
// a forward packet (hits its client's forward rule), a reverse packet (hits
// the reverse rule) and a packet from an address no rule names to a VIP
// (hits the punt rule), each at 0 allocs/op.
func BenchmarkFlowTableLookup(b *testing.B) {
	sw, forward, reverse, _ := warmReplayTable()
	unnamedSource := *forward
	unnamedSource.SrcIP = "192.0.2.1"
	for _, tc := range []struct {
		name string
		pkt  *simnet.Packet
		prio int
	}{{"forward", forward, 100}, {"reverse", reverse, 100}, {"unnamed-source", &unnamedSource, 50}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			if r, _ := sw.lookup(tc.pkt); r == nil || r.Priority != tc.prio {
				b.Fatalf("lookup hit %v, want a priority-%d rule", r, tc.prio)
			}
			if n := testing.AllocsPerRun(100, func() { sw.lookup(tc.pkt) }); n != 0 {
				b.Fatalf("%.1f allocs per lookup, want 0", n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.lookup(tc.pkt)
			}
		})
	}
}

// TestLookupProbesNamedSignatures: on warmReplayTable a lookup probes only
// the signatures whose address fields the packet's addresses appear in — 2
// for a forward packet (the forward and the punt signature), 1 for a reverse
// packet — and a packet between two addresses no rule names probes only
// signatures that wildcard both addresses. It reads the signature set lookup
// probes, and checks each packet still hits its rule.
func TestLookupProbesNamedSignatures(t *testing.T) {
	sw, forward, reverse, unnamed := warmReplayTable()
	probes := func(pkt *simnet.Packet) uint16 {
		return sw.probes(sw.addrs[pkt.SrcIP], sw.addrs[pkt.DstIP], pkt.SrcPort, pkt.DstPort)
	}
	fwdSig := signatureOf(Match{SrcIP: "a", DstIP: "b", DstPort: 1})
	revSig := signatureOf(Match{SrcIP: "a", SrcPort: 1, DstIP: "b"})
	puntSig := signatureOf(Match{DstIP: "b", DstPort: 1})
	if want := uint16(1)<<fwdSig | 1<<revSig | 1<<puntSig; sw.liveSigs != want {
		t.Fatalf("live signatures %016b, want %016b", sw.liveSigs, want)
	}
	for _, tc := range []struct {
		name string
		pkt  *simnet.Packet
		want uint16
		prio int
	}{
		{"forward", forward, 1<<fwdSig | 1<<puntSig, 100},
		{"reverse", reverse, 1 << revSig, 100},
		{"unnamed", unnamed, 0, -1},
	} {
		got := probes(tc.pkt)
		if got != tc.want {
			t.Errorf("%s packet probes signatures %016b (%d), want %016b (%d)", tc.name, got, bits.OnesCount16(got), tc.want, bits.OnesCount16(tc.want))
		}
		r, _ := sw.lookup(tc.pkt)
		if tc.prio < 0 && r != nil || tc.prio >= 0 && (r == nil || r.Priority != tc.prio) {
			t.Errorf("%s packet hit %v, want priority %d (-1: none)", tc.name, r, tc.prio)
		}
	}
}

// BenchmarkAddFlow is the ledger's flow-mod unit: one AddFlow plus the
// DeleteFlows that takes the rule out again (so the table stays at its
// size), with 1k and 10k rules installed. Neither call reads or orders the
// rest of the table, so the cost must not grow with it beyond cache misses;
// the gate fails if the pair at 10k costs more than three times the pair at
// 1k.
func BenchmarkAddFlow(b *testing.B) {
	rule := func(i int) FlowRule {
		return FlowRule{
			Priority: 100, Cookie: uint64(1 + i),
			Match:   Match{SrcIP: simnet.Addr(fmt.Sprintf("10.%d.%d.%d", 1+i>>16, i>>8&0xff, i&0xff)), DstIP: "203.0.113.10", DstPort: 80},
			Actions: Actions{SetDstIP: "10.0.0.10", SetDstPort: 32000, Output: OutputDrop},
		}
	}
	perOp := map[int]time.Duration{}
	for _, at := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("at%dk", at/1000), func(b *testing.B) {
			b.ReportAllocs()
			sw := NewSwitch(simnet.NewNetwork(sim.New(1)), "sw", Config{})
			for i := 0; i < at; i++ {
				sw.AddFlow(rule(i))
			}
			fresh := make([]FlowRule, 1024)
			for i := range fresh {
				fresh[i] = rule(at + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &fresh[i%len(fresh)]
				sw.AddFlow(*r)
				sw.DeleteFlows(r.Cookie)
			}
			perOp[at] = b.Elapsed() / time.Duration(b.N)
			if sw.RuleCount() != at {
				b.Fatalf("table holds %d rules after the run, want %d", sw.RuleCount(), at)
			}
		})
	}
	b.Run("within-3x", func(b *testing.B) {
		if perOp[1000] == 0 || perOp[10000] == 0 {
			b.Skip("at1k or at10k filtered out; nothing to compare")
		}
		ratio := float64(perOp[10000]) / float64(perOp[1000])
		b.ReportMetric(ratio, "at10k/at1k")
		if ratio > 3 {
			b.Fatalf("a flow-mod pair at 10k rules costs %.2fx one at 1k (%v vs %v), want <= 3x", ratio, perOp[10000], perOp[1000])
		}
	})
}

func TestLookupPrefersIndexedAndWildcardConsistently(t *testing.T) {
	// A wildcard rule with higher priority must beat an exact rule with
	// lower priority, and vice versa — across signature buckets.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := NewSwitch(n, "sw", Config{})
	exact := sw.AddFlow(FlowRule{
		Priority: 10,
		Match:    Match{SrcIP: "1.1.1.1", DstIP: "2.2.2.2", SrcPort: 5, DstPort: 80},
		Actions:  Actions{Output: OutputDrop},
	})
	wild := sw.AddFlow(FlowRule{
		Priority: 99,
		Match:    Match{DstIP: "2.2.2.2"},
		Actions:  Actions{Output: OutputDrop},
	})
	pkt := &simnet.Packet{SrcIP: "1.1.1.1", DstIP: "2.2.2.2", SrcPort: 5, DstPort: 80, Size: 64}
	if got, _ := sw.lookup(pkt); got != wild {
		t.Fatalf("lookup = %+v, want the high-priority wildcard", got.Match)
	}
	sw.removeRule(wild)
	if got, _ := sw.lookup(pkt); got != exact {
		t.Fatalf("lookup after removal = %v, want the exact rule", got)
	}
	sw.removeRule(exact)
	if got, _ := sw.lookup(pkt); got != nil {
		t.Fatalf("lookup on empty = %v, want nil", got)
	}
}
