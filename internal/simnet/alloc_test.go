package simnet

import (
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// sinkNode consumes every delivered packet back into the pool.
type sinkNode struct {
	name string
	net  *Network
	got  int
}

func (s *sinkNode) Name() string { return s.name }
func (s *sinkNode) HandlePacket(in *Port, pkt *Packet) {
	s.got++
	s.net.FreePacket(pkt)
}

// TestAllocsPortSendDeliver pins the steady-state allocation count of the
// full Port.Send -> serialization -> latency -> deliver path at zero: the
// packet comes from the pool, the transfer and its latency event are
// recycled, and the direction's completion event is the one built at Connect.
// The burst case keeps 64 transfers sharing the direction, so every arrival
// and departure rebalances a cohort — that must not allocate either. (Its
// latency is short enough for the latency events to spread over level-0
// wheel slots: behind a 1 ms latency a burst's events share one coarser slot,
// which outgrows its arena capacity the first time the clock visits it —
// a once-per-slot warm-up cost this test would otherwise count.)
func TestAllocsPortSendDeliver(t *testing.T) {
	for _, tc := range []struct {
		bw      BitsPerSec
		latency time.Duration
		burst   int
	}{{0, time.Millisecond, 1}, {100 * Mbps, time.Millisecond, 1}, {100 * Mbps, 100 * time.Microsecond, 64}} {
		k := sim.New(1)
		n := NewNetwork(k)
		a := &sinkNode{name: "a", net: n}
		b := &sinkNode{name: "b", net: n}
		pa, _ := n.Connect(a, b, LinkConfig{Latency: tc.latency, Bandwidth: tc.bw})
		send := func() {
			for i := 0; i < tc.burst; i++ {
				pkt := n.NewPacket()
				pkt.Kind, pkt.SrcIP, pkt.DstIP, pkt.Size = KindDATA, "10.0.0.1", "10.0.0.2", KiB+Bytes(i)
				pa.Send(pkt)
			}
			k.Run()
		}
		// Warm the packet/transfer/event pools and slice capacities.
		for i := 0; i < 10; i++ {
			send()
		}
		before := b.got
		avg := testing.AllocsPerRun(200, send)
		if avg != 0 {
			t.Errorf("bandwidth %v, burst %d: %.1f allocs per send+deliver, want 0", tc.bw, tc.burst, avg)
		}
		if b.got-before != 201*tc.burst { // AllocsPerRun runs once extra to warm up
			t.Fatalf("bandwidth %v, burst %d: delivered %d, want %d", tc.bw, tc.burst, b.got-before, 201*tc.burst)
		}
	}
}

// TestSchedulesPerHopBounded pins the mechanism behind the contended path,
// not just its outcome: with 1024 transfers sharing one direction, a packet
// costs the kernel at most three enqueues (the direction's event re-armed at
// its arrival and at its departure, plus its own latency event) and the
// timer queue never holds more than the cohort's worth of entries. Re-arming
// every member on every membership change would enqueue ~1024 per packet.
// A packet that meets no other costs one enqueue and one event.
func TestSchedulesPerHopBounded(t *testing.T) {
	const cohort = 1024
	k := sim.New(1)
	n := NewNetwork(k)
	a := &sinkNode{name: "a", net: n}
	b := &sinkNode{name: "b", net: n}
	pa, _ := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 100 * Mbps})
	for i := 0; i < cohort; i++ {
		pkt := n.NewPacket()
		pkt.Kind, pkt.Size = KindDATA, KiB+Bytes(i%7)
		pa.Send(pkt)
	}
	if ab, _ := pa.Link().ActiveTransfers(); ab != cohort {
		t.Fatalf("%d transfers serializing, want %d", ab, cohort)
	}
	if k.Pending() != 1 {
		t.Errorf("%d events armed for a %d-transfer cohort, want exactly 1", k.Pending(), cohort)
	}
	k.Run()
	if b.got != cohort {
		t.Fatalf("delivered %d, want %d", b.got, cohort)
	}
	st := k.Stats()
	if st.Scheduled > 3*cohort {
		t.Errorf("kernel enqueued %d entries for %d packets (%.1f each), want <= 3 each",
			st.Scheduled, cohort, float64(st.Scheduled)/cohort)
	}
	if st.NearHighWater > 2*cohort {
		t.Errorf("near-heap high water %d for a %d-transfer cohort, want <= %d", st.NearHighWater, cohort, 2*cohort)
	}

	// Uncontended, the other end of the scale: a packet alone on its
	// direction costs the kernel one enqueue and one fired event per hop —
	// its delivery — and the direction arms nothing.
	const lone = 500
	k = sim.New(1)
	n = NewNetwork(k)
	b = &sinkNode{name: "b", net: n}
	pa, _ = n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: 100 * Mbps})
	for i := 0; i < lone; i++ {
		pkt := n.NewPacket()
		pkt.Kind, pkt.Size = KindDATA, KiB
		k.At(sim.Time(i)*time.Millisecond, func() { pa.Send(pkt) })
	}
	base := k.Stats()
	k.Run()
	st = k.Stats()
	if b.got != lone {
		t.Fatalf("delivered %d, want %d", b.got, lone)
	}
	if sched, fired := st.Scheduled-base.Scheduled, st.Events-lone; sched != lone || fired != lone {
		t.Errorf("%d lone packets: %d enqueues and %d fired events beyond the sends themselves, want %d and %d",
			lone, sched, fired, lone, lone)
	}
}

// TestAllocsHostDataReceive pins the end-to-end DATA segment path across an
// established connection — Conn.Send, link transfer, Host.HandlePacket
// demux, in-order fast path, the receiving handler's ConnMessage, packet
// free — at zero steady-state allocations.
func TestAllocsHostDataReceive(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	ha, hb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond})
	a.SetUplink(ha)
	b.SetUplink(hb)

	// The server's record has room for every message, so keeping one
	// allocates nothing.
	server := &recorder{msgs: make([]any, 0, 256), at: make([]time.Duration, 0, 256)}
	b.ListenAsync(80, func(*Conn) ConnHandler { return server })
	var client recorder
	conn := a.DialAsync(b.IP(), 80, &client)
	k.Run()
	if client.established != 1 {
		t.Fatal("dial failed")
	}

	send := func() {
		if err := conn.Send(KiB, "payload"); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	for i := 0; i < 10; i++ {
		send()
	}
	before := len(server.msgs)
	avg := testing.AllocsPerRun(200, send)
	if avg != 0 {
		t.Errorf("%.1f allocs per DATA send+receive, want 0", avg)
	}
	if got := len(server.msgs) - before; got != 201 {
		t.Fatalf("received %d, want 201", got)
	}
}

// newExchangeRig links client a to server b (1 ms, 1 Gb/s), serves every
// request on b after 1 ms of service time, and returns a function that runs
// one HTTPGetAsync from a with the given deadline to completion, and the
// count of exchanges answered with b's response.
func newExchangeRig(timeout time.Duration) (exchange func(), answered *int) {
	k := sim.New(1)
	n := NewNetwork(k)
	a := NewHost(n, "a", "10.0.0.1")
	b := NewHost(n, "b", "10.0.0.2")
	ha, hb := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: Gbps})
	a.SetUplink(ha)
	b.SetUplink(hb)
	resp := &HTTPResponse{Status: 200, Size: KiB}
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, _ *HTTPRequest) { c.RespondAfter(time.Millisecond, resp) })
	req := &HTTPRequest{Method: "GET", Path: "/", Size: 256}
	ok := 0
	done := func(res *HTTPResult, err error) {
		if err == nil && res.Resp == resp {
			ok++
		}
	}
	return func() {
		a.HTTPGetAsync(b.IP(), 80, req, timeout, done)
		k.Run()
	}, &ok
}

// TestAllocsHTTPExchange pins a warm request exchange — HTTPGetAsync's dial,
// request, RespondAfter's service time, response, and close on both ends — at
// zero allocations, with and without a deadline: the call with its deadline
// event, both connections and the server connection come back from their
// free lists.
func TestAllocsHTTPExchange(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Second} {
		exchange, answered := newExchangeRig(timeout)
		for i := 0; i < 10; i++ {
			exchange()
		}
		before := *answered
		avg := testing.AllocsPerRun(200, exchange)
		if avg != 0 {
			t.Errorf("timeout %v: %.1f allocs per HTTP exchange, want 0", timeout, avg)
		}
		if *answered-before != 201 {
			t.Fatalf("timeout %v: %d exchanges answered, want 201", timeout, *answered-before)
		}
	}
}
