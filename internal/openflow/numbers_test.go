package openflow

import (
	"testing"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// recordNode keeps a copy of every packet it receives.
type recordNode struct {
	name string
	got  []simnet.Packet
}

func (r *recordNode) Name() string                                    { return r.name }
func (r *recordNode) HandlePacket(_ *simnet.Port, pkt *simnet.Packet) { r.got = append(r.got, *pkt) }

// numbersRig is a switch with a recording node behind each of ports 1 to 3,
// a redirect pair (client 10.1.0.1 to VIP 203.0.113.10:80 rewritten to
// instance 10.0.0.2:32000, and back) and routes: instance on port 2, client
// on port 1, everything else by default on port 3.
func numbersRig() (*Switch, []*recordNode) {
	n := simnet.NewNetwork(sim.New(1))
	sw := NewSwitch(n, "sw", Config{MissBehavior: OutputNormal})
	nodes := []*recordNode{nil}
	for num := 1; num <= 3; num++ {
		r := &recordNode{name: string(rune('0' + num))}
		p, _ := n.Connect(sw, r, simnet.LinkConfig{})
		sw.AddPort(num, p)
		nodes = append(nodes, r)
	}
	sw.SetRoute("10.1.0.1", 1)
	sw.SetRoute("10.0.0.2", 2)
	sw.SetDefaultRoute(3)
	sw.AddFlow(FlowRule{Priority: 100, Cookie: 7,
		Match:   Match{SrcIP: "10.1.0.1", DstIP: "203.0.113.10", DstPort: 80},
		Actions: Actions{SetDstIP: "10.0.0.2", SetDstPort: 32000, Output: OutputNormal}})
	sw.AddFlow(FlowRule{Priority: 100, Cookie: 7,
		Match:   Match{SrcIP: "10.0.0.2", SrcPort: 32000, DstIP: "10.1.0.1"},
		Actions: Actions{SetSrcIP: "203.0.113.10", SetSrcPort: 80, Output: OutputNormal}})
	return sw, nodes
}

// deliver runs the switch's pending work and returns the port and the packet
// that left it, failing unless exactly one did.
func deliver(t *testing.T, sw *Switch, nodes []*recordNode) (int, simnet.Packet) {
	t.Helper()
	sw.net.K.Run()
	port, out := 0, simnet.Packet{}
	for num, r := range nodes[1:] {
		for _, p := range r.got {
			if port != 0 {
				t.Fatalf("packet left by ports %d and %d", port, num+1)
			}
			port, out = num+1, p
		}
		r.got = nil
	}
	if port == 0 {
		t.Fatal("no packet left the switch")
	}
	return port, out
}

// checkNumbered fails unless out carries its addresses' numbers in n.
func checkNumbered(t *testing.T, what string, n *simnet.Network, out simnet.Packet) {
	t.Helper()
	if out.SrcID != n.Lookup(out.SrcIP) || out.DstID != n.Lookup(out.DstIP) || out.SrcID == 0 || out.DstID == 0 {
		t.Errorf("%s: left as %v numbered %d->%d, want %d->%d", what, &out, out.SrcID, out.DstID, n.Lookup(out.SrcIP), n.Lookup(out.DstIP))
	}
}

// TestStringOnlyPacketTakesNumberedPath: a packet built from its addresses
// alone, numbered on demand, hits the same rule and leaves by the same port
// with the same headers as the same packet built with its numbers; and a
// rule's SetDstIP or SetSrcIP rewrite leaves the packet carrying the number
// of the address it wrote.
func TestStringOnlyPacketTakesNumberedPath(t *testing.T) {
	sw, nodes := numbersRig()
	n := sw.net
	for _, tc := range []struct {
		name     string
		src, dst simnet.Addr
		sp, dp   int
		port     int
	}{
		{"forward (SetDstIP)", "10.1.0.1", "203.0.113.10", 40000, 80, 2},
		{"reverse (SetSrcIP)", "10.0.0.2", "10.1.0.1", 32000, 40000, 1},
		{"routed", "10.0.0.2", "10.1.0.1", 9999, 40000, 1},
		{"to an address nothing names", "10.1.0.1", "192.0.2.9", 40000, 80, 3},
	} {
		var outs [2]simnet.Packet
		for i, numbered := range []bool{false, true} {
			pkt := &simnet.Packet{Kind: simnet.KindDATA, SrcIP: tc.src, DstIP: tc.dst, SrcPort: tc.sp, DstPort: tc.dp, Size: 100}
			if numbered {
				pkt.SrcID, pkt.DstID = n.Number(tc.src), n.Number(tc.dst)
			}
			sw.HandlePacket(nil, pkt)
			port, out := deliver(t, sw, nodes)
			if port != tc.port {
				t.Errorf("%s (numbered %v): left by port %d, want %d", tc.name, numbered, port, tc.port)
			}
			checkNumbered(t, tc.name, n, out)
			outs[i] = out
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: string-only packet left as %+v, numbered one as %+v", tc.name, outs[0], outs[1])
		}
	}
	var hits [2]uint64
	for i, r := range sw.Rules() {
		hits[i], _ = r.Stats()
	}
	if hits != [2]uint64{2, 2} {
		t.Errorf("rule hits %v, want each rule hit by both forms of its packet", hits)
	}
}

// TestPacketOutRewriteSetsNumbers: a packet-out's set-fields leave the packet
// carrying the numbers of the addresses they wrote, addresses the network had
// not numbered before included, and NORMAL output routes by them.
func TestPacketOutRewriteSetsNumbers(t *testing.T) {
	sw, nodes := numbersRig()
	n := sw.net
	pkt := &simnet.Packet{Kind: simnet.KindSYN, SrcIP: "10.1.0.1", DstIP: "203.0.113.10", SrcPort: 40000, DstPort: 80}
	n.NumberPacket(pkt)
	sw.PacketOut(pkt, Actions{SetSrcIP: "198.51.100.1", SetDstIP: "10.0.0.2", Output: OutputNormal})
	port, out := deliver(t, sw, nodes)
	if port != 2 || out.SrcIP != "198.51.100.1" || out.DstIP != "10.0.0.2" {
		t.Fatalf("packet-out left by port %d as %v, want port 2 as 198.51.100.1 -> 10.0.0.2", port, &out)
	}
	checkNumbered(t, "packet-out", n, out)
}
