package simnet

import (
	"fmt"
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// loopNode keeps a fixed number of transfers on one direction: every
// delivered packet goes straight back out of the sending port.
type loopNode struct {
	name      string
	out       *Port
	delivered int
}

func (l *loopNode) Name() string { return l.name }
func (l *loopNode) HandlePacket(in *Port, pkt *Packet) {
	l.delivered++
	pkt.Size = KiB + Bytes(l.delivered%61)
	l.out.Send(pkt)
}

// BenchmarkHTTPExchange is the request exchange's per-layer gate: one warm
// HTTPGetAsync ↔ ServeHTTPAsync exchange with RespondAfter and a deadline
// over one link, expected at 0 allocs/op (TestAllocsHTTPExchange pins it).
func BenchmarkHTTPExchange(b *testing.B) {
	b.ReportAllocs()
	exchange, answered := newExchangeRig(time.Second)
	for i := 0; i < 10; i++ { // warm the free lists, pools and slice capacities
		exchange()
	}
	before := *answered
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
	if *answered-before != b.N {
		b.Fatalf("%d of %d exchanges answered", *answered-before, b.N)
	}
}

// BenchmarkLinkContention is the ledger's contended-hop unit: the host cost
// of one packet's trip over a direction that 1 or 1024 transfers share
// (zero propagation delay, so everything in flight is serializing). Fair
// share makes a membership change touch every member — the settle arithmetic
// is the model, bit for bit — so at1024 is not expected near at1. What must
// not come back is per-member kernel work on top of it: the gate times that
// arithmetic alone (one departure plus one arrival on a 1024-member cohort
// per op, nothing scheduled) and fails if a real packet at 1024 costs more
// than four times it. Measured 0.8-1.2x across runs; the cohort re-arm
// design measured 3.5-4.4x, so the bound is a backstop on host cost — the
// sharp, deterministic pin of the mechanism is TestSchedulesPerHopBounded.
func BenchmarkLinkContention(b *testing.B) {
	perOp := map[int]time.Duration{}
	for _, at := range []int{1, 1024} {
		b.Run(fmt.Sprintf("at%d", at), func(b *testing.B) {
			b.ReportAllocs()
			k := sim.New(1)
			n := NewNetwork(k)
			sink := &loopNode{name: "sink"}
			src := &sinkNode{name: "src", net: n}
			pa, _ := n.Connect(src, sink, LinkConfig{Bandwidth: Gbps})
			sink.out = pa
			for i := 0; i < at; i++ {
				pkt := n.NewPacket()
				pkt.Kind, pkt.Size = KindDATA, KiB+Bytes(i%61)
				pa.Send(pkt)
			}
			for sink.delivered < 4*at { // warm pools, slots and slice capacities
				k.Step()
			}
			target := sink.delivered + b.N
			b.ResetTimer()
			for sink.delivered < target {
				k.Step()
			}
			perOp[at] = b.Elapsed() / time.Duration(b.N)
			// Same-size members complete at the same instant, ahead of their
			// deliveries, so a few may be between the two stages right now.
			if ab, _ := pa.Link().ActiveTransfers(); ab > at || ab < at-at/16 {
				b.Fatalf("%d transfers serializing after the run, want about %d", ab, at)
			}
		})
	}
	b.Run("within-4x", func(b *testing.B) {
		if perOp[1024] == 0 {
			b.Skip("at1024 filtered out; nothing to compare")
		}
		const at = 1024
		type member struct {
			remaining, rate float64
			updated, due    sim.Time
		}
		members := make([]*member, at)
		for i := range members {
			members[i] = &member{remaining: float64(KiB + Bytes(i%61))}
		}
		capacity, now := float64(Gbps)/8, sim.Time(0)
		change := func(n int) { // the per-member work of direction.rebalance
			share := capacity / float64(n)
			for _, t := range members[:n] {
				elapsed := (now - t.updated).Seconds()
				t.remaining -= t.rate * elapsed
				if t.remaining < 0 {
					t.remaining = 0
				}
				t.updated = now
				t.rate = share
				t.due = now + time.Duration(t.remaining/share*float64(time.Second))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 8 * time.Microsecond // one packet time at line rate
			change(at - 1)
			members[at-1].remaining, members[at-1].updated = float64(KiB+Bytes(i%61)), now
			change(at)
		}
		floor := b.Elapsed() / time.Duration(b.N)
		ratio := float64(perOp[at]) / float64(floor)
		b.ReportMetric(ratio, "at1024/arithmetic")
		if ratio > 4 {
			b.Fatalf("a packet on a %d-transfer direction costs %v, %.2fx the fair-share arithmetic alone (%v), want <= 4x",
				at, perOp[at], ratio, floor)
		}
	})
}
