package simnet

import (
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// crossShardPair builds two single-host networks in separate domains joined
// by a fabric link.
func crossShardPair(shards int, cfg LinkConfig) (*sim.ShardGroup, *Host, *Host) {
	g := sim.NewShardGroup(2, shards, 1, cfg.Latency)
	f := NewFabric(g)
	na := NewNetwork(g.Kernel(0))
	nb := NewNetwork(g.Kernel(1))
	a := NewHost(na, "a", "10.0.0.1")
	b := NewHost(nb, "b", "10.1.0.1")
	pa, pb := f.Connect(na, a, 0, nb, b, 1, cfg)
	a.SetUplink(pa)
	b.SetUplink(pb)
	return g, a, b
}

// An HTTP request/response across the shard boundary must behave exactly
// like a local link with the same config — and identically at 1 and 2
// shards.
func TestFabricHTTPAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2} {
		g, a, b := crossShardPair(shards, LinkConfig{Name: "x", Latency: 2 * time.Millisecond})
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			c.Respond(&HTTPResponse{Status: 200, Size: KiB, Body: "hi"})
		})
		var res *HTTPResult
		var err error
		g.Kernel(0).Go("client", func(p *sim.Proc) {
			res, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 0)
		})
		g.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Resp.Status != 200 || res.Resp.Body != "hi" {
			t.Fatalf("shards=%d: resp = %+v", shards, res.Resp)
		}
		// One 2ms link each way: handshake 4ms, request+response 4ms.
		if res.Connect != 4*time.Millisecond || res.Total != 8*time.Millisecond {
			t.Fatalf("shards=%d: Connect=%v Total=%v, want 4ms/8ms", shards, res.Connect, res.Total)
		}
	}
}

// Fair-share serialization happens on the sending half of a fabric link,
// so bandwidth timing matches a local link's.
func TestFabricBandwidthSerialization(t *testing.T) {
	cfg := LinkConfig{Name: "bw", Latency: 5 * time.Millisecond, Bandwidth: 8 * Mbps}
	g, a, b := crossShardPair(2, cfg)
	server := accept(b, 80)
	g.Kernel(0).After(0, func() {
		a.DialAsync(b.IP(), 80, &recorder{open: func(c *Conn) {
			c.Send(1_000_000, "blob") // 1 MB at 1 MB/s = 1 s serialization
		}})
	})
	g.Run()
	if len(*server) != 1 || len((*server)[0].at) != 1 {
		t.Fatal("payload never delivered")
	}
	// Handshake: SYN 5ms out (64B at 1MB/s is 64µs serialization),
	// SYN-ACK back. Then 1s serialization + 5ms propagation. Just
	// bound it: must be >= 1s and well under 1.1s.
	if at := (*server)[0].at[0]; at < time.Second || at > 1100*time.Millisecond {
		t.Fatalf("delivery at %v, want ~1.01s", at)
	}
}

// A fabric link faster than the lookahead would let one shard schedule
// into another's executing window; Connect must refuse it.
func TestFabricSubLookaheadLatencyPanics(t *testing.T) {
	g := sim.NewShardGroup(2, 2, 1, 10*time.Millisecond)
	f := NewFabric(g)
	na := NewNetwork(g.Kernel(0))
	nb := NewNetwork(g.Kernel(1))
	a := NewHost(na, "a", "10.0.0.1")
	b := NewHost(nb, "b", "10.1.0.1")
	defer func() {
		if recover() == nil {
			t.Error("Connect below lookahead must panic")
		}
	}()
	f.Connect(na, a, 0, nb, b, 1, LinkConfig{Name: "fast", Latency: time.Millisecond})
}

// recordNode keeps a copy of every packet it receives.
type recordNode struct {
	name string
	got  []Packet
}

func (r *recordNode) Name() string                      { return r.name }
func (r *recordNode) HandlePacket(_ *Port, pkt *Packet) { r.got = append(r.got, *pkt) }

// Address numbers are per network: a packet crossing a fabric link arrives
// carrying its addresses' numbers in the destination network, not the
// sender's, at 1 and 2 shards.
func TestFabricRenumbersInDestinationNetwork(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := LinkConfig{Name: "x", Latency: 2 * time.Millisecond}
		g := sim.NewShardGroup(2, shards, 1, cfg.Latency)
		na, nb := NewNetwork(g.Kernel(0)), NewNetwork(g.Kernel(1))
		nb.Number("10.9.0.1") // nb numbers the two ends in another order than na
		a := NewHost(na, "a", "10.0.0.1")
		dst := &recordNode{name: "b"}
		pa, _ := NewFabric(g).Connect(na, a, 0, nb, dst, 1, cfg)
		a.SetUplink(pa)
		g.Kernel(0).After(0, func() { a.DialAsync("10.1.0.1", 80, &recorder{}) })
		g.Run()
		if len(dst.got) != 1 {
			t.Fatalf("shards=%d: %d packets arrived, want the SYN", shards, len(dst.got))
		}
		got := dst.got[0]
		src, to := nb.Lookup("10.0.0.1"), nb.Lookup("10.1.0.1")
		if got.SrcID != src || got.DstID != to || src == na.Lookup("10.0.0.1") || to == na.Lookup("10.1.0.1") {
			t.Errorf("shards=%d: SYN arrived numbered %d->%d; destination network's numbers %d->%d, sender's %d->%d",
				shards, got.SrcID, got.DstID, src, to, na.Lookup("10.0.0.1"), na.Lookup("10.1.0.1"))
		}
	}
}
