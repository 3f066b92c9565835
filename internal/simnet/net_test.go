package simnet

import (
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
	var h recorder
	a.DialAsync(b.IP(), 8080, &h)
	k.Run()
	if h.refused != 1 || h.established != 0 {
		t.Fatalf("handler saw %d refusals and %d handshakes, want one refusal", h.refused, h.established)
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
	redial(a, b.IP(), 80, 0, 10*time.Millisecond, func(c *Conn) {
		okAt = k.Now()
		c.Close()
	})
	k.Run()
	if okAt < 50*time.Millisecond || okAt > 80*time.Millisecond {
		t.Fatalf("port open detected at %v, want shortly after 50ms", okAt)
	}
}

func TestDialTimeout(t *testing.T) {
	// Destination exists but no route -> SYN dropped -> no answer ever; the
	// dialer gives up with Abort.
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	r := NewRouter(n, "r")
	a.AttachTo(r, LinkConfig{Latency: time.Millisecond})
	var h recorder
	c := a.DialAsync("10.9.9.9", 80, &h)
	k.After(2*time.Second, c.Abort)
	k.Run()
	if h.established+h.refused != 0 || k.Now() != 2*time.Second {
		t.Fatalf("handler saw %+v, run ended at %v; want no verdict and the abort at 2s", h, k.Now())
	}
	if len(a.conns) != 0 {
		t.Fatalf("%d connections left on the dialer after Abort, want 0", len(a.conns))
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
	server := accept(b, 80)
	// 1 MB each at 1 MB/s capacity: solo 1 s, shared 2 s.
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) { c.Send(1_000_000, "x") }})
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) { c.Send(1_000_000, "y") }})
	k.Run()
	var done []time.Duration
	for _, r := range *server {
		done = append(done, r.at...)
	}
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
	server := accept(b, 80)
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) { c.Send(2_000_000, &HTTPRequest{Path: "A"}) }})
	k.After(time.Second, func() {
		a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) { c.Send(500_000, &HTTPRequest{Path: "B"}) }})
	})
	k.Run()
	arrivals := map[string]time.Duration{}
	for _, r := range *server {
		for i, v := range r.msgs {
			arrivals[v.(*HTTPRequest).Path] = r.at[i]
		}
	}
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
		server := accept(b, 80)
		var want Bytes
		a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) {
			for _, s := range sizes {
				sz := Bytes(s) + minWireSize
				want += sz
				c.Send(sz, &HTTPRequest{Size: sz})
			}
		}})
		k.Run()
		var got Bytes
		for _, r := range *server {
			for _, v := range r.msgs {
				got += v.(*HTTPRequest).Size
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDeliversFIN(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	server := accept(b, 80)
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) { c.Close() }})
	k.Run()
	if len(*server) != 1 || (*server)[0].closed != 1 {
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
	accept(h, 80)
	defer func() {
		if recover() == nil {
			t.Error("duplicate ListenAsync did not panic")
		}
	}()
	accept(h, 80)
}

func TestListenerCloseRefusesNew(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.ListenAsync(80, func(*Conn) ConnHandler { return &recorder{} }).Close()
	var h recorder
	a.DialAsync(b.IP(), 80, &h)
	k.Run()
	if h.refused != 1 {
		t.Fatalf("handler saw %+v, want refused after listener close", h)
	}
}

func TestPortOpen(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	h := NewHost(n, "h", "10.0.0.1")
	if h.PortOpen(80) {
		t.Fatal("PortOpen on fresh host")
	}
	l := h.ListenAsync(80, func(*Conn) ConnHandler { return &recorder{} })
	if !h.PortOpen(80) {
		t.Fatal("PortOpen = false after ListenAsync")
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
	server := accept(b, 80)
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) {
		c.Send(2_000_000, &HTTPRequest{Path: "big"})
		c.Send(1_000, &HTTPRequest{Path: "small"})
	}})
	k.Run()
	var got []string
	for _, v := range (*server)[0].msgs {
		got = append(got, v.(*HTTPRequest).Path)
	}
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
	var server recorder
	msgsAtClose := -1
	server.shut = func() { msgsAtClose = len(server.msgs) }
	b.ListenAsync(80, func(*Conn) ConnHandler { return &server })
	a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) {
		c.Send(1_000_000, "one")
		c.Send(1_000_000, "two")
		c.Close()
	}})
	k.Run()
	if server.closed != 1 {
		t.Fatal("receiver did not observe close")
	}
	if msgsAtClose != 2 {
		t.Fatalf("messages before close = %d, want 2 (FIN outran DATA?)", msgsAtClose)
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
		server := accept(b, 80)
		a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) {
			for i, s := range sizes {
				c.Send(Bytes(s%2_000_000)+1, i)
			}
		}})
		k.Run()
		if len(*server) != 1 || len((*server)[0].msgs) != len(sizes) {
			return false
		}
		for i, v := range (*server)[0].msgs {
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
	var down, up recorder
	c := a.DialAsync(b.IP(), 80, &down)
	k.After(200*time.Millisecond, func() {
		c.Abort()
		link.SetDown(false)
		a.DialAsync(b.IP(), 80, &up)
	})
	k.Run()
	if down.established+down.refused != 0 {
		t.Fatalf("dial over down link saw %+v, want no answer", down)
	}
	if up.established != 1 {
		t.Fatalf("dial after link up saw %+v, want established", up)
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
	server := accept(b, 80)
	// The dial may need retries under 50% loss.
	redial(a, b.IP(), 80, 100*time.Millisecond, 0, func(c *Conn) {
		for i := 0; i < 100; i++ {
			c.Send(KiB, i)
		}
	})
	k.RunUntil(time.Minute)
	if received := received(*server); received == 0 || received == 100 {
		t.Fatalf("received = %d of 100 under 50%% loss, want some but not all", received)
	}
	if pa.Link().Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

// recorder is the ConnHandler of the connection tests: it counts the
// handshake verdicts and closes it is told of and keeps every message with
// the instant it arrived. The hooks, if set, run on an accepted dial (open),
// after each message (reply), on a refused dial and on a close.
type recorder struct {
	established, refused, closed int
	msgs                         []any
	at                           []time.Duration
	open, reply                  func(c *Conn)
	refuse, shut                 func()
}

func (r *recorder) ConnEstablished(c *Conn, ok bool) {
	if !ok {
		r.refused++
		if r.refuse != nil {
			r.refuse()
		}
		return
	}
	r.established++
	if r.open != nil {
		r.open(c)
	}
}

func (r *recorder) ConnMessage(c *Conn, payload any) {
	r.msgs = append(r.msgs, payload)
	r.at = append(r.at, time.Duration(c.host.net.K.Now()))
	if r.reply != nil {
		r.reply(c)
	}
}

func (r *recorder) ConnClosed(*Conn) {
	r.closed++
	if r.shut != nil {
		r.shut()
	}
}

// told counts the events the recorder was told of.
func (r *recorder) told() int { return r.established + r.refused + r.closed + len(r.msgs) }

// accept listens on port, handing each inbound connection a fresh recorder;
// the list holds them in arrival order.
func accept(h *Host, port int) *[]*recorder {
	rs := new([]*recorder)
	h.ListenAsync(port, func(*Conn) ConnHandler {
		r := &recorder{}
		*rs = append(*rs, r)
		return r
	})
	return rs
}

// received counts the messages the recorders were handed.
func received(rs []*recorder) int {
	n := 0
	for _, r := range rs {
		n += len(r.msgs)
	}
	return n
}

// redial dials from h until a connection is accepted and runs open on it. An
// attempt that is refused, or that has no answer after timeout (it is
// aborted; zero waits for the answer), is followed by the next pause later.
func redial(h *Host, dst Addr, port int, timeout, pause time.Duration, open func(c *Conn)) {
	k := h.net.K
	again := func() { k.After(pause, func() { redial(h, dst, port, timeout, pause, open) }) }
	r := &recorder{open: open, refuse: again}
	c := h.DialAsync(dst, port, r)
	if timeout > 0 {
		k.After(timeout, func() {
			if r.established+r.refused == 0 {
				c.Abort()
				again()
			}
		})
	}
}

// TestAbortTimedOutDial: a dial given up on before its SYN-ACK arrives sends
// the SYN and nothing else, leaves no connection on the dialing host, and the
// late SYN-ACK is freed without reaching the handler.
func TestAbortTimedOutDial(t *testing.T) {
	k, n, a, b := pair(t, LinkConfig{Latency: 10 * time.Millisecond}) // RTT 40 ms
	reg := obs.NewRegistry()
	n.SetObs(reg)
	fromA := 0
	n.PktTrace = func(_ string, pkt *Packet) {
		if pkt.SrcIP == a.IP() {
			fromA++
		}
	}
	accept(b, 80)
	const timeout = 25 * time.Millisecond // the SYN has arrived, the SYN-ACK has not
	var h recorder
	c := a.DialAsync(b.IP(), 80, &h)
	k.After(timeout, c.Abort)
	k.Run()
	if h.told() != 0 {
		t.Errorf("handler saw %+v after Abort, want nothing", h)
	}
	if fromA != 2 { // the one SYN, seen at the router and at b
		t.Errorf("%d deliveries of packets from the dialer, want 2 (one SYN, two hops)", fromA)
	}
	if len(a.conns) != 0 {
		t.Errorf("%d connections left on the dialer, want 0", len(a.conns))
	}
	m := reg.Map()
	gets, puts := m["simnet_packet_pool_gets_total"], m["simnet_packet_pool_puts_total"]
	if gets != 2 || puts != 2 {
		t.Errorf("pool gets/puts = %v/%v, want 2/2 (SYN and the late SYN-ACK, both freed)", gets, puts)
	}
}

// TestCloseTellsHandler pins the ConnClosed contract on the local side: Close
// on an established connection reports to the handler once, inside the call;
// a second Close and Abort report nothing.
func TestCloseTellsHandler(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	server := accept(b, 80)
	var h recorder
	c := a.DialAsync(b.IP(), 80, &h)
	k.Run()
	if h.established != 1 || h.told() != 1 {
		t.Fatalf("after the handshake the handler saw %+v, want one ConnEstablished", h)
	}
	c.Close()
	if h.closed != 1 {
		t.Fatalf("Close reported %d ConnClosed to the local handler, want 1 before it returns", h.closed)
	}
	c.Close()
	k.Run()
	if h.closed != 1 || (*server)[0].closed != 1 {
		t.Errorf("ConnClosed local/peer = %d/%d, want 1/1", h.closed, (*server)[0].closed)
	}

	var aborted recorder
	a.DialAsync(b.IP(), 80, &aborted).Abort()
	k.Run()
	if aborted.told() != 0 {
		t.Errorf("handler of an aborted dial saw %+v, want nothing", aborted)
	}
}
