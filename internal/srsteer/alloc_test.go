package srsteer

import (
	"testing"
	"time"

	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/steer"
)

type sinkNode struct {
	name string
	net  *simnet.Network
	got  int
	last simnet.Packet
}

func (s *sinkNode) Name() string { return s.name }
func (s *sinkNode) HandlePacket(in *simnet.Port, pkt *simnet.Packet) {
	s.got++
	s.last = *pkt
	s.net.FreePacket(pkt)
}

// TestAllocsSRv6Ingress pins the stateless steering hot path — two struct-key
// map probes, in-place encap/decap, NORMAL forwarding — at zero steady-state
// allocations per packet, forward and reverse.
func TestAllocsSRv6Ingress(t *testing.T) {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := openflow.NewSwitch(n, "sw", openflow.Config{FwdDelay: 20 * time.Microsecond})
	client := &sinkNode{name: "client", net: n}
	inst := &sinkNode{name: "inst", net: n}
	clientPort, swIn := n.Connect(client, sw, simnet.LinkConfig{Latency: time.Millisecond})
	swOut, instPort := n.Connect(sw, inst, simnet.LinkConfig{Latency: time.Millisecond})
	_ = instPort
	sw.AddPort(1, swIn)
	sw.AddPort(2, swOut)
	sw.SetRoute("10.0.0.2", 2)
	sw.SetRoute("10.1.0.1", 1)

	b := New()
	b.Bind(steer.Params{Kernel: k}) // no idle timeout: the pin isolates the datapath
	b.AttachSwitch(sw)
	f := steer.Flow{Client: "10.1.0.1", VIP: "203.0.113.99", Port: 80}
	b.InstallRedirect(sw, f, steer.Endpoint{Addr: "10.0.0.2", Port: 32000})

	sendFwd := func() {
		pkt := n.NewPacket()
		pkt.Kind, pkt.SrcIP, pkt.DstIP = simnet.KindDATA, "10.1.0.1", "203.0.113.99"
		pkt.SrcPort, pkt.DstPort, pkt.Size = 40000, 80, simnet.KiB
		clientPort.Send(pkt)
		k.Run()
	}
	sendRev := func() {
		pkt := n.NewPacket()
		pkt.Kind, pkt.SrcIP, pkt.DstIP = simnet.KindDATA, "10.0.0.2", "10.1.0.1"
		pkt.SrcPort, pkt.DstPort, pkt.Size = 32000, 40000, simnet.KiB
		instPort.Send(pkt)
		k.Run()
	}
	for i := 0; i < 10; i++ {
		sendFwd()
		sendRev()
	}
	if inst.last.DstIP != "10.0.0.2" || inst.last.DstPort != 32000 {
		t.Fatalf("forward encap wrong: %+v", inst.last)
	}
	if client.last.SrcIP != "203.0.113.99" || client.last.SrcPort != 80 {
		t.Fatalf("reverse decap wrong: %+v", client.last)
	}
	// The rewrites set the numbers of the addresses they write.
	if inst.last.DstID != n.Lookup("10.0.0.2") || client.last.SrcID != n.Lookup("203.0.113.99") {
		t.Fatalf("encap numbered the destination %d (want %d), decap the source %d (want %d)",
			inst.last.DstID, n.Lookup("10.0.0.2"), client.last.SrcID, n.Lookup("203.0.113.99"))
	}

	before := inst.got + client.got
	if avg := testing.AllocsPerRun(200, sendFwd); avg != 0 {
		t.Errorf("%.1f allocs per forward encap, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, sendRev); avg != 0 {
		t.Errorf("%.1f allocs per reverse decap, want 0", avg)
	}
	if inst.got+client.got-before != 402 {
		t.Fatalf("delivered %d, want 402 (encap or decap path broken)", inst.got+client.got-before)
	}
}
