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

// TestAllocsSwitchProcessHit pins the flow-table hit path — FwdDelay FIFO,
// signature-indexed lookup, in-place Actions.apply rewrite, port output —
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

// releaseController answers every packet-in by handing the held packet back
// to the switch with release, over the controller channel.
type releaseController struct {
	release func(sw *Switch, pkt *simnet.Packet)
}

func (c *releaseController) HandlePacketIn(ev PacketIn)           { c.release(ev.Switch, ev.Packet) }
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
			pkt.DstIP = "10.0.0.2" // the controller owns the held packet
			sw.TableOut(pkt)
		}},
		{"PacketOut", func(sw *Switch, pkt *simnet.Packet) {
			sw.PacketOut(pkt, Actions{SetDstIP: "10.0.0.2", Output: OutputPort, OutPort: 2})
		}},
	} {
		k := sim.New(1)
		n := simnet.NewNetwork(k)
		sw := NewSwitch(n, "sw", DefaultConfig())
		sw.SetController(&releaseController{release: tc.release})
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
		before, punted := dst.got, sw.PacketsIn
		avg := testing.AllocsPerRun(200, send)
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per packet-in round trip, want 0", tc.name, avg)
		}
		if dst.got-before != 201 || sw.PacketsIn-punted != 201 {
			t.Fatalf("%s: %d punted, %d delivered, want 201 each", tc.name, sw.PacketsIn-punted, dst.got-before)
		}
	}
}
