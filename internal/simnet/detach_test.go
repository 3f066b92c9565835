package simnet

import (
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// TestDetachDropsInFlightPackets pins the severed-link semantics of a
// handover: every packet in flight on the old radio link (either direction)
// is dropped at its own transfer event, counted as a detach drop, and
// returned to the pool — never delivered from a dead port, never leaked.
func TestDetachDropsInFlightPackets(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)

	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	r := NewRouter(n, "r")
	cfg := LinkConfig{Latency: 10 * time.Millisecond}
	_, ra := a.AttachTo(r, cfg)
	_, rb := b.AttachTo(r, cfg)
	r.AddRoute(a.IP(), ra)
	r.AddRoute(b.IP(), rb)

	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200, Size: 4 * KiB})
	})

	var firstErr, secondErr error
	var second *HTTPResult
	k.Go("client", func(p *sim.Proc) {
		// The request's SYN takes 20 ms to reach b; severing a's link at
		// 5 ms (below) kills it mid-flight on the first hop.
		_, firstErr = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{}, 200*time.Millisecond)

		// Re-attach: the host moves behind the same router over a fresh
		// link; established addressing still works and a new request
		// completes normally.
		_, ra2 := a.MoveTo(r, cfg)
		r.AddRoute(a.IP(), ra2)
		second, secondErr = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{}, 0)
	})
	k.After(5*time.Millisecond, a.Detach)
	k.RunUntil(10 * time.Second)

	if firstErr == nil {
		t.Error("request over the severed link succeeded, want timeout")
	}
	if n.detachDrops == 0 {
		t.Error("no detach drops counted for the in-flight packet")
	}
	if secondErr != nil {
		t.Fatalf("request after re-attach: %v", secondErr)
	}
	if second.Resp.Status != 200 {
		t.Fatalf("post-handover response = %+v", second.Resp)
	}
	// Pool balance: every packet the run took from the pool went back —
	// severed-link drops free their packets rather than leaking them.
	if n.poolGets != n.poolPuts {
		t.Errorf("packet pool unbalanced: %d gets, %d puts", n.poolGets, n.poolPuts)
	}
}

// TestDetachedHostSendDrops pins the stack-side semantics: a send while
// detached is a counted drop (the UE radios into the void between cells),
// not a topology panic, and ProcDelay-queued packets decide at drain time —
// one drained after a re-attach leaves over the new uplink.
func TestDetachedHostSendDrops(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	sink := &sinkNode{name: "s", net: n}
	a.AttachTo(sink, LinkConfig{Latency: time.Millisecond})

	send := func() {
		pkt := n.NewPacket()
		pkt.Kind, pkt.SrcIP, pkt.DstIP, pkt.Size = KindDATA, a.IP(), Addr("10.0.0.2"), KiB
		a.sendOut(pkt)
	}

	a.Detach()
	send()
	k.Run()
	if n.detachDrops != 1 {
		t.Fatalf("detached send: drops = %d, want 1", n.detachDrops)
	}
	if sink.got != 0 {
		t.Fatalf("detached send delivered %d packets", sink.got)
	}

	// A packet inside the ProcDelay stage when the host re-attaches goes
	// out the new uplink: it had not left the stack when the old link died.
	a.ProcDelay = 5 * time.Millisecond
	send()
	k.After(time.Millisecond, func() { a.MoveTo(sink, LinkConfig{Latency: time.Millisecond}) })
	k.Run()
	if sink.got != 1 {
		t.Fatalf("queued packet after re-attach: delivered %d, want 1", sink.got)
	}
	if n.detachDrops != 1 {
		t.Fatalf("queued packet was dropped: drops = %d, want 1", n.detachDrops)
	}

	// The same queued packet with no re-attach by drain time is dropped.
	a.Detach()
	send()
	k.Run()
	if n.detachDrops != 2 || sink.got != 1 {
		t.Fatalf("drain while detached: drops = %d delivered = %d, want 2/1", n.detachDrops, sink.got)
	}
}

// TestSeveredLinkNeverDelivers pins the direction the switch still routes
// into: a peer sending toward a detached host's old port drops immediately.
func TestSeveredLinkNeverDelivers(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := &sinkNode{name: "a", net: n}
	host := NewHost(n, "h", "10.0.0.9")
	_, peer := host.AttachTo(a, LinkConfig{Latency: time.Millisecond})

	host.Detach()
	pkt := n.NewPacket()
	pkt.Kind, pkt.SrcIP, pkt.DstIP, pkt.Size = KindDATA, Addr("10.0.0.2"), host.IP(), KiB
	peer.Send(pkt)
	k.Run()
	if n.detachDrops != 1 {
		t.Errorf("send into severed link: drops = %d, want 1", n.detachDrops)
	}
}
