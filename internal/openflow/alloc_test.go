package openflow

import (
	"testing"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

type sinkNode struct {
	name string
	net  *simnet.Network
	got  int
}

func (s *sinkNode) Name() string { return s.name }
func (s *sinkNode) HandlePacket(in *simnet.Port, pkt *simnet.Packet) {
	s.got++
	s.net.FreePacket(pkt)
}

// TestAllocsSwitchProcessHit pins the flow-table hit path — the FwdDelay
// stage riding the link's delivery, signature-indexed lookup, in-place Actions.apply rewrite, port output —
// at zero steady-state allocations per packet.
func TestAllocsSwitchProcessHit(t *testing.T) {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := NewSwitch(n, "sw", Config{FwdDelay: 20 * time.Microsecond})
	src := &sinkNode{name: "src", net: n}
	dst := &sinkNode{name: "dst", net: n}
	srcPort, swIn := n.Connect(src, sw, simnet.LinkConfig{Latency: time.Millisecond})
	_, _ = srcPort, swIn
	swOut, _ := n.Connect(sw, dst, simnet.LinkConfig{Latency: time.Millisecond})
	sw.AddPort(1, swIn)
	sw.AddPort(2, swOut)
	sw.AddFlow(FlowRule{
		Priority: 10,
		Match:    Match{SrcIP: "10.0.0.1", DstIP: "1.2.3.4", SrcPort: 40000, DstPort: 80},
		Actions:  Actions{SetDstIP: "10.0.0.2", Output: OutputPort, OutPort: 2},
	})
	// A lower-priority wildcard rule so lookup walks more than one
	// signature bucket, as the real table does.
	sw.AddFlow(FlowRule{
		Priority: 1,
		Match:    Match{DstPort: 80},
		Actions:  Actions{Output: OutputDrop},
	})

	send := func() {
		pkt := n.NewPacket()
		pkt.Kind, pkt.SrcIP, pkt.DstIP = simnet.KindDATA, "10.0.0.1", "1.2.3.4"
		pkt.SrcPort, pkt.DstPort, pkt.Size = 40000, 80, simnet.KiB
		srcPort.Send(pkt)
		k.Run()
	}
	for i := 0; i < 10; i++ {
		send()
	}
	before := dst.got
	avg := testing.AllocsPerRun(200, send)
	if avg != 0 {
		t.Errorf("%.1f allocs per switch hit, want 0", avg)
	}
	if dst.got-before != 201 {
		t.Fatalf("delivered %d, want 201 (rewrite or output path broken)", dst.got-before)
	}
}

// removalController records, during each HandleFlowRemoved call, the cookie
// and match of the rule it is handed: the rule itself is only borrowed.
type removalController struct {
	cookies []uint64
	matches []Match
}

func (c *removalController) HandlePacketIn(PacketIn) {}
func (c *removalController) HandleFlowRemoved(_ *Switch, r *FlowRule) {
	c.cookies = append(c.cookies, r.Cookie)
	c.matches = append(c.matches, r.Match)
}

// redirectPair is the controller's rule shape: a forward rule that arms the
// cookie's idle clock and asks for the flow-removed, and a reverse rule.
func redirectPair(cookie uint64, idle time.Duration) (fwd, rev FlowRule) {
	fwd = FlowRule{
		Priority: 100, Cookie: cookie, IdleTimeout: idle, NotifyRemoved: true,
		Match:   Match{SrcIP: "10.1.0.1", DstIP: "203.0.113.10", DstPort: 80},
		Actions: Actions{SetDstIP: "10.0.0.2", SetDstPort: 32000, Output: OutputNormal},
	}
	rev = FlowRule{
		Priority: 100, Cookie: cookie,
		Match:   Match{SrcIP: "10.0.0.2", SrcPort: 32000, DstIP: "10.1.0.1"},
		Actions: Actions{SetSrcIP: "203.0.113.10", SetSrcPort: 80, Output: OutputNormal},
	}
	return fwd, rev
}

// TestAllocsFlowMods pins the write side of the flow table at zero
// allocations once warm: rules and cookie groups come off the switch's free
// lists and their timers' callbacks are bound once. Two cycles: a redirect
// pair installed and deleted, and a pair that idles out and whose
// flow-removed reaches the controller.
func TestAllocsFlowMods(t *testing.T) {
	k := sim.New(1)
	sw := NewSwitch(simnet.NewNetwork(k), "sw", DefaultConfig())
	ctrl := &removalController{cookies: make([]uint64, 0, 1024), matches: make([]Match, 0, 1024)}
	sw.SetController(ctrl)
	sw.AddFlow(FlowRule{Priority: 50, Match: Match{DstIP: "203.0.113.10", DstPort: 80}, Actions: Actions{Output: OutputController}})
	cookie := uint64(1 << 32)
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"pair-delete", func() {
			cookie++
			fwd, rev := redirectPair(cookie, time.Second)
			sw.AddFlow(fwd)
			sw.AddFlow(rev)
			if sw.DeleteFlows(cookie) != 2 {
				t.Fatal("DeleteFlows did not remove the pair")
			}
			k.Run()
		}},
		{"idle-expiry-flow-removed", func() {
			cookie++
			fwd, rev := redirectPair(cookie, time.Second)
			sw.AddFlow(fwd)
			sw.AddFlow(rev)
			k.Run()
			if ctrl.cookies[len(ctrl.cookies)-1] != cookie {
				t.Fatal("no flow-removed for the idled-out pair")
			}
		}},
	} {
		for i := 0; i < 5; i++ {
			tc.cycle()
		}
		if n := testing.AllocsPerRun(200, tc.cycle); n != 0 {
			t.Errorf("%s: %.1f allocs per cycle, want 0", tc.name, n)
		}
		if sw.RuleCount() != 1 || k.Pending() != 0 {
			t.Fatalf("%s: %d rules, %d events pending after the cycles, want the punt rule and none", tc.name, sw.RuleCount(), k.Pending())
		}
	}
}

// TestRuleRecycledOnlyWhenUnreferenced pins when a removed rule may be reused:
// not while its flow-removed notice is in flight — the controller must see
// the rule as it expired.
func TestRuleRecycledOnlyWhenUnreferenced(t *testing.T) {
	k := sim.New(1)
	sw := NewSwitch(simnet.NewNetwork(k), "sw", DefaultConfig())
	ctrl := &removalController{}
	sw.SetController(ctrl)
	other := FlowRule{Priority: 1, Match: Match{DstIP: "198.51.100.1"}, Actions: Actions{Output: OutputDrop}}

	// Notice in flight.
	fwd, _ := redirectPair(7, time.Second)
	r1 := sw.AddFlow(fwd)
	k.RunUntil(time.Second) // the cookie idles out; its notice is on the channel
	if sw.RuleCount() != 0 || len(ctrl.cookies) != 0 {
		t.Fatalf("%d rules, %d notices at the expiry instant, want 0 and 0", sw.RuleCount(), len(ctrl.cookies))
	}
	if r := sw.AddFlow(other); r == r1 {
		t.Fatal("a rule whose flow-removed is in flight was reused")
	}
	k.Run()
	if len(ctrl.cookies) != 1 || ctrl.cookies[0] != 7 || ctrl.matches[0] != fwd.Match {
		t.Fatalf("flow-removed saw cookies %v matches %v, want the expired rule's", ctrl.cookies, ctrl.matches)
	}
	if r := sw.AddFlow(other); r != r1 {
		t.Fatal("a delivered rule was not recycled")
	}
}

// releaseController answers every packet-in by handing the held packet back
// to the switch with release, over the controller channel.
type releaseController struct {
	release func(sw *Switch, pkt *simnet.Packet)
	punted  int
}

func (c *releaseController) HandlePacketIn(ev PacketIn) {
	c.punted++
	c.release(ev.Switch, ev.Packet)
}
func (c *releaseController) HandleFlowRemoved(*Switch, *FlowRule) {}

// TestAllocsControllerRoundTrip pins a punted packet's round trip — packet-in
// up the controller channel, then TableOut (re-run through the table) or
// PacketOut (explicit actions) back down — at zero steady-state allocations:
// both directions share one FIFO and one pre-bound drain thunk.
func TestAllocsControllerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(sw *Switch, pkt *simnet.Packet)
	}{
		{"TableOut", func(sw *Switch, pkt *simnet.Packet) {
			// The controller owns the held packet; a rewrite sets the
			// address's number with it.
			pkt.DstIP, pkt.DstID = "10.0.0.2", sw.Network().Number("10.0.0.2")
			sw.TableOut(pkt)
		}},
		{"PacketOut", func(sw *Switch, pkt *simnet.Packet) {
			sw.PacketOut(pkt, Actions{SetDstIP: "10.0.0.2", Output: OutputPort, OutPort: 2})
		}},
	} {
		k := sim.New(1)
		n := simnet.NewNetwork(k)
		sw := NewSwitch(n, "sw", DefaultConfig())
		ctrl := &releaseController{release: tc.release}
		sw.SetController(ctrl)
		src := &sinkNode{name: "src", net: n}
		dst := &sinkNode{name: "dst", net: n}
		srcPort, swIn := n.Connect(src, sw, simnet.LinkConfig{Latency: time.Millisecond})
		swOut, _ := n.Connect(sw, dst, simnet.LinkConfig{Latency: time.Millisecond})
		sw.AddPort(1, swIn)
		sw.AddPort(2, swOut)
		sw.AddFlow(FlowRule{Priority: 10, Match: Match{DstIP: "1.2.3.4"}, Actions: Actions{Output: OutputController}})
		sw.AddFlow(FlowRule{Priority: 10, Match: Match{DstIP: "10.0.0.2"}, Actions: Actions{Output: OutputPort, OutPort: 2}})

		send := func() {
			pkt := n.NewPacket()
			pkt.Kind, pkt.SrcIP, pkt.DstIP = simnet.KindSYN, "10.0.0.1", "1.2.3.4"
			pkt.SrcPort, pkt.DstPort, pkt.Size = 40000, 80, 64
			srcPort.Send(pkt)
			k.Run()
		}
		for i := 0; i < 10; i++ {
			send()
		}
		before, punted := dst.got, ctrl.punted
		avg := testing.AllocsPerRun(200, send)
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per packet-in round trip, want 0", tc.name, avg)
		}
		if dst.got-before != 201 || ctrl.punted-punted != 201 {
			t.Fatalf("%s: %d punted, %d delivered, want 201 each", tc.name, ctrl.punted-punted, dst.got-before)
		}
	}
}
