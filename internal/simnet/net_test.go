package simnet

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
)

// pair builds two hosts connected via a router with symmetric links.
func pair(t *testing.T, cfg LinkConfig) (*sim.Kernel, *Network, *Host, *Host) {
	t.Helper()
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	r := NewRouter(n, "r")
	_, ra := a.AttachTo(r, cfg)
	_, rb := b.AttachTo(r, cfg)
	r.AddRoute(a.IP(), ra)
	r.AddRoute(b.IP(), rb)
	return k, n, a, b
}

func TestDialAndRequest(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200, Size: 1 * KiB, Body: "hello"})
	})
	var res *HTTPResult
	var err error
	k.Go("client", func(p *sim.Proc) {
		res, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 0)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Status != 200 || res.Resp.Body != "hello" {
		t.Fatalf("resp = %+v", res.Resp)
	}
	// handshake = 2 hops each way over 2 links of 1 ms = 4 ms;
	// request + response = another 4 ms.
	if res.Connect != 4*time.Millisecond {
		t.Errorf("Connect = %v, want 4ms", res.Connect)
	}
	if res.Total != 8*time.Millisecond {
		t.Errorf("Total = %v, want 8ms", res.Total)
	}
}

func TestConnRefusedWhenNoListener(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	var err error
	k.Go("client", func(p *sim.Proc) {
		_, err = a.Dial(p, b.IP(), 8080, 0)
	})
	k.Run()
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestConnRefusedThenOpen(t *testing.T) {
	// The SDN controller's readiness probe pattern: dial until accepted.
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	k.After(50*time.Millisecond, func() {
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			c.Respond(&HTTPResponse{Status: 200})
		})
	})
	var okAt time.Duration
	k.Go("prober", func(p *sim.Proc) {
		for {
			c, err := a.Dial(p, b.IP(), 80, 0)
			if err == nil {
				okAt = p.Now()
				c.Close()
				return
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	k.Run()
	if okAt < 50*time.Millisecond || okAt > 80*time.Millisecond {
		t.Fatalf("port open detected at %v, want shortly after 50ms", okAt)
	}
}

func TestDialTimeout(t *testing.T) {
	// Destination exists but no route -> SYN dropped -> timeout.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	r := NewRouter(n, "r")
	a.AttachTo(r, LinkConfig{Latency: time.Millisecond})
	var err error
	var at time.Duration
	k.Go("client", func(p *sim.Proc) {
		_, err = a.Dial(p, "10.9.9.9", 80, 2*time.Second)
		at = p.Now()
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) || at != 2*time.Second {
		t.Fatalf("err=%v at=%v, want timeout at 2s", err, at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 8 MiB over ~83.9 Mbps-ish: use 8 Mbit payload over 1 Mbps = 8 s.
	k, _, a, b := pair(t, LinkConfig{Latency: 0, Bandwidth: 1 * Mbps})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200, Size: minWireSize})
	})
	var res *HTTPResult
	k.Go("client", func(p *sim.Proc) {
		res, _ = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Size: 125_000}, 0) // 1 Mbit
	})
	k.Run()
	// Request crosses two 1 Mbps links in series: 1 s + 1 s = 2 s, plus
	// small control segments.
	if res.Total < 2*time.Second || res.Total > 2100*time.Millisecond {
		t.Fatalf("Total = %v, want ~2s", res.Total)
	}
}

func TestFairShareTwoTransfers(t *testing.T) {
	// Two equal transfers sharing one direction finish together at ~2x the
	// solo time.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: 0, Bandwidth: 8 * Mbps})
	a.SetUplink(pa)
	b.SetUplink(pb)
	var done []time.Duration
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		for {
			if _, err := c.Recv(p, 0); err != nil {
				return
			}
			done = append(done, p.Now())
		}
	})
	k.Go("clients", func(p *sim.Proc) {
		c1, _ := a.Dial(p, b.IP(), 80, 0)
		c2, _ := a.Dial(p, b.IP(), 80, 0)
		// 1 MB each at 1 MB/s capacity: solo 1 s, shared 2 s.
		c1.Send(1_000_000, "x")
		c2.Send(1_000_000, "y")
	})
	k.Run()
	if len(done) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(done))
	}
	for _, d := range done {
		if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
			t.Fatalf("delivery at %v, want ~2s (fair share)", d)
		}
	}
}

func TestFairShareLateJoiner(t *testing.T) {
	// Transfer A (2 MB) starts at t=0; transfer B (0.5 MB) joins at t=1s.
	// Capacity 1 MB/s. A runs solo for 1 s (1 MB done), then shares
	// 0.5 MB/s. B finishes at 1s + 1s = 2s; A has 0.5 MB left at t=2s,
	// finishes at 2.5 s.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: 0, Bandwidth: 8 * Mbps})
	a.SetUplink(pa)
	b.SetUplink(pb)
	arrivals := map[string]time.Duration{}
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		for {
			v, err := c.Recv(p, 0)
			if err != nil {
				return
			}
			arrivals[v.(*HTTPRequest).Path] = p.Now()
		}
	})
	k.Go("driver", func(p *sim.Proc) {
		c1, _ := a.Dial(p, b.IP(), 80, 0)
		c1.Send(2_000_000, &HTTPRequest{Path: "A"})
		p.Sleep(time.Second)
		c2, _ := a.Dial(p, b.IP(), 80, 0)
		c2.Send(500_000, &HTTPRequest{Path: "B"})
	})
	k.Run()
	within := func(got, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 100*time.Millisecond
	}
	if !within(arrivals["B"], 2*time.Second) {
		t.Errorf("B arrived at %v, want ~2s", arrivals["B"])
	}
	if !within(arrivals["A"], 2500*time.Millisecond) {
		t.Errorf("A arrived at %v, want ~2.5s", arrivals["A"])
	}
}

// Property: total bytes delivered equals total bytes sent regardless of the
// mix of concurrent transfer sizes (bandwidth conservation, no loss).
func TestQuickBandwidthConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 30 {
			return true
		}
		k := sim.New(5)
		n := NewNetwork(k)
		a := NewHost(n, "a", "10.0.0.1")
		b := NewHost(n, "b", "10.0.0.2")
		pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 100 * Mbps})
		a.SetUplink(pa)
		b.SetUplink(pb)
		var got Bytes
		var want Bytes
		b.Listen(80, func(p *sim.Proc, c *Conn) {
			for {
				v, err := c.Recv(p, 0)
				if err != nil {
					return
				}
				got += v.(*HTTPRequest).Size
			}
		})
		k.Go("driver", func(p *sim.Proc) {
			c, err := a.Dial(p, b.IP(), 80, 0)
			if err != nil {
				return
			}
			for _, s := range sizes {
				sz := Bytes(s) + minWireSize
				want += sz
				c.Send(sz, &HTTPRequest{Size: sz})
			}
		})
		k.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		// Accept but never respond.
		c.Recv(p, 0)
	})
	var err error
	k.Go("client", func(p *sim.Proc) {
		c, derr := a.Dial(p, b.IP(), 80, 0)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		_, err = c.Recv(p, 500*time.Millisecond)
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestCloseDeliversFIN(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	serverSawClose := false
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		_, err := c.Recv(p, 0)
		serverSawClose = errors.Is(err, ErrConnClosed)
	})
	k.Go("client", func(p *sim.Proc) {
		c, _ := a.Dial(p, b.IP(), 80, 0)
		c.Close()
	})
	k.Run()
	if !serverSawClose {
		t.Fatal("server did not observe connection close")
	}
}

func TestHostProcDelay(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	a.ProcDelay = 5 * time.Millisecond // slow client (RPi)
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200})
	})
	var res *HTTPResult
	k.Go("client", func(p *sim.Proc) {
		res, _ = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{}, 0)
	})
	k.Run()
	// Client adds 5ms on SYN and on its DATA send: total = 8ms + 10ms.
	if res.Total != 18*time.Millisecond {
		t.Fatalf("Total = %v, want 18ms", res.Total)
	}
}

func TestDuplicateListenerPanics(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	h := NewHost(n, "h", "10.0.0.1")
	h.Listen(80, func(p *sim.Proc, c *Conn) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Listen did not panic")
		}
	}()
	h.Listen(80, func(p *sim.Proc, c *Conn) {})
}

func TestListenerCloseRefusesNew(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	l := b.Listen(80, func(p *sim.Proc, c *Conn) {})
	l.Close()
	var err error
	k.Go("client", func(p *sim.Proc) {
		_, err = a.Dial(p, b.IP(), 80, 0)
	})
	k.Run()
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want refused after listener close", err)
	}
}

func TestPortOpen(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	h := NewHost(n, "h", "10.0.0.1")
	if h.PortOpen(80) {
		t.Fatal("PortOpen on fresh host")
	}
	l := h.Listen(80, func(p *sim.Proc, c *Conn) {})
	if !h.PortOpen(80) {
		t.Fatal("PortOpen = false after Listen")
	}
	l.Close()
	if h.PortOpen(80) {
		t.Fatal("PortOpen = true after Close")
	}
}

func TestRouterDefaultRoute(t *testing.T) {
	// a -> r -> cloud fallback.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	cloud := NewHost(n, "cloud", "203.0.113.10")
	r := NewRouter(n, "r")
	_, ra := a.AttachTo(r, LinkConfig{Latency: time.Millisecond})
	_, rc := cloud.AttachTo(r, LinkConfig{Latency: 20 * time.Millisecond})
	r.AddRoute(a.IP(), ra)
	r.SetDefault(rc)
	cloud.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200, Body: "cloud"})
	})
	var res *HTTPResult
	k.Go("client", func(p *sim.Proc) {
		res, _ = a.HTTPGet(p, "203.0.113.10", 80, &HTTPRequest{}, 0)
	})
	k.Run()
	if res == nil || res.Resp.Body != "cloud" {
		t.Fatalf("res = %+v, want cloud response", res)
	}
	// handshake + request/response = 2 round trips x (1+20)*2 ms = 84 ms.
	if res.Total != 84*time.Millisecond {
		t.Fatalf("Total = %v, want 84ms", res.Total)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: KindSYN, SrcIP: "1.1.1.1", DstIP: "2.2.2.2", SrcPort: 5, DstPort: 80, Size: 64}
	if p.String() != "SYN 1.1.1.1:5->2.2.2.2:80 (64B)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestTracerRecordsDeliveries(t *testing.T) {
	k, n, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	tr := NewTracer(n)
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200})
	})
	k.Go("client", func(p *sim.Proc) {
		a.HTTPGet(p, b.IP(), 80, &HTTPRequest{}, 0)
	})
	k.Run()
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	// The SYN reaches the router first, then host b.
	entries := tr.Entries()
	if entries[0].Kind != KindSYN || entries[0].Node != "r" {
		t.Fatalf("first entry = %+v", entries[0])
	}
	sawData := false
	for _, e := range entries {
		if e.Kind == KindDATA && e.Node == "b" {
			sawData = true
		}
	}
	if !sawData {
		t.Fatalf("no DATA delivery to b in trace:\n%s", tr.String())
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTracerFilterAndLimit(t *testing.T) {
	k, n, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	tr := NewTracer(n)
	tr.Filter = func(src, dst Addr) bool { return dst == b.IP() }
	tr.Limit = 2
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200})
	})
	k.Go("client", func(p *sim.Proc) {
		a.HTTPGet(p, b.IP(), 80, &HTTPRequest{}, 0)
	})
	k.Run()
	if tr.Len() != 2 {
		t.Fatalf("entries = %d, want limit 2", tr.Len())
	}
	for _, e := range tr.Entries() {
		if e.Dst[:len(e.Dst)-3] != string(b.IP()) && e.Dst != string(b.IP())+":80" {
			t.Fatalf("filter leaked entry %+v", e)
		}
	}
}

func TestInOrderDeliveryUnderFairShare(t *testing.T) {
	// A large message followed by a small one on the SAME connection: the
	// small transfer finishes serialization first under fair sharing, but
	// the receiver must still see them in send order (TCP semantics).
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 8 * Mbps})
	a.SetUplink(pa)
	b.SetUplink(pb)
	var got []string
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		for {
			v, err := c.Recv(p, 0)
			if err != nil {
				return
			}
			got = append(got, v.(*HTTPRequest).Path)
		}
	})
	k.Go("driver", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 80, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send(2_000_000, &HTTPRequest{Path: "big"})
		c.Send(1_000, &HTTPRequest{Path: "small"})
	})
	k.Run()
	if len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Fatalf("delivery order = %v, want [big small]", got)
	}
}

func TestFINAfterPipelinedData(t *testing.T) {
	// Close immediately after pipelined sends: the receiver must get all
	// messages before the connection closes, even though the tiny FIN
	// would outrun the large DATA transfer on the wire.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 8 * Mbps})
	a.SetUplink(pa)
	b.SetUplink(pb)
	var got int
	sawClose := false
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		for {
			_, err := c.Recv(p, 0)
			if err != nil {
				sawClose = errors.Is(err, ErrConnClosed)
				return
			}
			got++
		}
	})
	k.Go("driver", func(p *sim.Proc) {
		c, _ := a.Dial(p, b.IP(), 80, 0)
		c.Send(1_000_000, "one")
		c.Send(1_000_000, "two")
		c.Close()
	})
	k.Run()
	if got != 2 {
		t.Fatalf("messages before close = %d, want 2 (FIN outran DATA?)", got)
	}
	if !sawClose {
		t.Fatal("receiver did not observe close")
	}
}

// Property: any interleaving of message sizes on one connection arrives in
// send order, with nothing lost.
func TestQuickInOrderDelivery(t *testing.T) {
	f := func(sizes []uint32) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		k := sim.New(13)
		n := NewNetwork(k)
		a := NewHost(n, "a", "10.0.0.1")
		b := NewHost(n, "b", "10.0.0.2")
		pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 50 * Mbps})
		a.SetUplink(pa)
		b.SetUplink(pb)
		var got []int
		b.Listen(80, func(p *sim.Proc, c *Conn) {
			for {
				v, err := c.Recv(p, 0)
				if err != nil {
					return
				}
				got = append(got, v.(int))
			}
		})
		k.Go("driver", func(p *sim.Proc) {
			c, err := a.Dial(p, b.IP(), 80, 0)
			if err != nil {
				return
			}
			for i, s := range sizes {
				c.Send(Bytes(s%2_000_000)+1, i)
			}
		})
		k.Run()
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDownDropsPackets(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond})
	a.SetUplink(pa)
	b.SetUplink(pb)
	link := pa.Link()
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200})
	})
	link.SetDown(true)
	var downErr, upErr error
	k.Go("client", func(p *sim.Proc) {
		_, downErr = a.Dial(p, b.IP(), 80, 200*time.Millisecond)
		link.SetDown(false)
		_, upErr = a.Dial(p, b.IP(), 80, 200*time.Millisecond)
	})
	k.Run()
	if !errors.Is(downErr, ErrTimeout) {
		t.Fatalf("dial over down link = %v, want timeout", downErr)
	}
	if upErr != nil {
		t.Fatalf("dial after link up = %v", upErr)
	}
	if link.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestLinkLossDropsSomePackets(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	pa, pb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Loss: 0.5})
	a.SetUplink(pa)
	b.SetUplink(pb)
	received := 0
	b.Listen(80, func(p *sim.Proc, c *Conn) {
		for {
			if _, err := c.Recv(p, 0); err != nil {
				return
			}
			received++
		}
	})
	k.Go("client", func(p *sim.Proc) {
		// Dial may need retries under 50% loss.
		var c *Conn
		for c == nil {
			var err error
			c, err = a.Dial(p, b.IP(), 80, 100*time.Millisecond)
			if err != nil {
				c = nil
			}
		}
		for i := 0; i < 100; i++ {
			c.Send(KiB, i)
		}
	})
	k.RunUntil(time.Minute)
	if received == 0 || received == 100 {
		t.Fatalf("received = %d of 100 under 50%% loss, want some but not all", received)
	}
	if pa.Link().Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

// dialProbe is a ConnHandler that records what a callback-mode dial reports.
type dialProbe struct{ established, refused, closed int }

func (d *dialProbe) ConnEstablished(_ *Conn, ok bool) {
	if ok {
		d.established++
	} else {
		d.refused++
	}
}
func (d *dialProbe) ConnMessage(*Conn, any) {}
func (d *dialProbe) ConnClosed(*Conn)       { d.closed++ }

// TestAbortTimedOutDial: a dial given up on before its SYN-ACK arrives sends
// the SYN and nothing else, leaves no connection on the dialing host, and the
// late SYN-ACK is freed without reaching the handler — through Abort directly
// exactly as through the blocking Dial's timeout.
func TestAbortTimedOutDial(t *testing.T) {
	for _, mode := range []string{"async", "process"} {
		k, n, a, b := pair(t, LinkConfig{Latency: 10 * time.Millisecond}) // RTT 40 ms
		reg := obs.NewRegistry()
		n.SetObs(reg)
		fromA := 0
		n.PktTrace = func(_ string, pkt *Packet) {
			if pkt.SrcIP == a.IP() {
				fromA++
			}
		}
		b.ListenAsync(80, func(*Conn) ConnHandler { return &dialProbe{} })
		const timeout = 25 * time.Millisecond // the SYN has arrived, the SYN-ACK has not
		var h dialProbe
		var dialErr error
		if mode == "async" {
			c := a.DialAsync(b.IP(), 80, &h)
			k.After(timeout, c.Abort)
		} else {
			k.Go("dial", func(p *sim.Proc) { _, dialErr = a.Dial(p, b.IP(), 80, timeout) })
		}
		k.Run()
		if mode == "process" && !errors.Is(dialErr, ErrTimeout) {
			t.Errorf("%s: Dial err = %v, want ErrTimeout", mode, dialErr)
		}
		if h != (dialProbe{}) {
			t.Errorf("%s: handler saw %+v after Abort, want nothing", mode, h)
		}
		if fromA != 2 { // the one SYN, seen at the router and at b
			t.Errorf("%s: %d deliveries of packets from the dialer, want 2 (one SYN, two hops)", mode, fromA)
		}
		if len(a.conns) != 0 {
			t.Errorf("%s: %d connections left on the dialer, want 0", mode, len(a.conns))
		}
		m := reg.Map()
		gets, puts := m["simnet_packet_pool_gets_total"], m["simnet_packet_pool_puts_total"]
		if gets != 2 || puts != 2 {
			t.Errorf("%s: pool gets/puts = %v/%v, want 2/2 (SYN and the late SYN-ACK, both freed)", mode, gets, puts)
		}
	}
}

// TestCloseTellsHandler pins the ConnClosed contract on the local side: Close
// on an established connection reports to the handler once, inside the call;
// a second Close and Abort report nothing.
func TestCloseTellsHandler(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	var server dialProbe
	b.ListenAsync(80, func(*Conn) ConnHandler { return &server })
	var h dialProbe
	c := a.DialAsync(b.IP(), 80, &h)
	k.Run()
	if h != (dialProbe{established: 1}) {
		t.Fatalf("after the handshake the handler saw %+v, want one ConnEstablished", h)
	}
	c.Close()
	if h.closed != 1 {
		t.Fatalf("Close reported %d ConnClosed to the local handler, want 1 before it returns", h.closed)
	}
	c.Close()
	k.Run()
	if h.closed != 1 || server.closed != 1 {
		t.Errorf("ConnClosed local/peer = %d/%d, want 1/1", h.closed, server.closed)
	}

	var aborted dialProbe
	a.DialAsync(b.IP(), 80, &aborted).Abort()
	k.Run()
	if aborted != (dialProbe{}) {
		t.Errorf("handler of an aborted dial saw %+v, want nothing", aborted)
	}
}
