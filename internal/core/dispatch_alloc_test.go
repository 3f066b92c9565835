package core

import (
	"testing"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/simnet"
)

// churnRig is one client punting SYNs to a service whose instance already
// runs, on a cluster whose host is not attached to the switch: a redirected
// packet is dropped there, so a cycle costs the control path and nothing
// past it. Every cycle runs until its timers are done — the pair idles out
// and its flow-removed comes back — so each starts from the same state.
type churnRig struct {
	*hotpathRig
	cli simnet.Addr
	pkt simnet.Packet // reused: the switch drops it without freeing it
}

func newChurnRig(t testing.TB, memoryIdle time.Duration, reg *obs.Registry) *churnRig {
	cfg := Config{Counters: reg}
	cfg.SwitchIdleTimeout = time.Second
	cfg.MemoryIdleTimeout = memoryIdle
	rg := newHotpathRig(t, 0, 1, cfg)
	ghost := simnet.NewHost(rg.n, "ghost", "10.0.3.1")
	fc := &hpCluster{name: "fc", host: ghost, port: 32000, images: true, exists: true, running: true}
	rg.ctrl.AddCluster(fc, "docker")
	return &churnRig{hotpathRig: rg, cli: rg.clients[0].IP()}
}

// punt runs one SYN from the client into the switch and runs the kernel for
// d, or until it is idle when d is 0.
func (rg *churnRig) punt(d time.Duration) {
	rg.pkt = simnet.Packet{Kind: simnet.KindSYN, SrcIP: rg.cli, DstIP: "203.0.113.10", SrcPort: 40000, DstPort: 80, Size: 64}
	rg.sw.HandlePacket(nil, &rg.pkt)
	if d == 0 {
		rg.k.Run()
		return
	}
	rg.k.RunUntilBefore(rg.k.Now() + d)
}

// TestAllocsControllerPacketIn pins the controller's share of a punted
// packet. A FlowMemory hit reinstalls the pair with no allocation, and so
// does a miss redirected to a running instance: the dispatch is a
// continuation that starts no process, and its record and buffers, the
// memorized entry, the rules and their cookie group come off free lists (a
// running service needs no deployment promise). Counting is free: the
// same holds with a registry attached.
func TestAllocsControllerPacketIn(t *testing.T) {
	t.Run("memory-hit", func(t *testing.T) {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			rg := newChurnRig(t, time.Hour, reg)
			cycle := func() { rg.punt(2 * time.Second) }
			for i := 0; i < 5; i++ {
				cycle() // the first is the dispatch that memorizes the flow
			}
			served := rg.ctrl.Stats.MemoryServed
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("registry %v: %.1f allocs per memory-hit packet-in cycle, want 0", reg != nil, n)
			}
			if got := rg.ctrl.Stats.MemoryServed - served; got != 201 || rg.ctrl.CookieCount() != 0 {
				t.Fatalf("%d memory hits over 201 cycles, %d cookies left; want 201 and 0", got, rg.ctrl.CookieCount())
			}
		}
	})
	t.Run("miss-redirect", func(t *testing.T) {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			rg := newChurnRig(t, 2*time.Second, reg)
			cycle := func() { rg.punt(0) }
			for i := 0; i < 5; i++ {
				cycle()
			}
			ins, served := rg.ctrl.Stats.PacketIns, rg.ctrl.Stats.MemoryServed
			starts := rg.k.Stats().ProcStarts
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("registry %v: %.1f allocs per dispatched packet-in cycle, want 0", reg != nil, n)
			}
			if n := rg.k.Stats().ProcStarts - starts; n != 0 {
				t.Errorf("%d processes started by 201 dispatches to a running instance, want 0", n)
			}
			if ins, served := rg.ctrl.Stats.PacketIns-ins, rg.ctrl.Stats.MemoryServed-served; ins != 201 || served != 0 {
				t.Fatalf("%d packet-ins, %d memory hits over 201 cycles; want 201 full dispatches", ins, served)
			}
			if rg.ctrl.Stats.Deployments != 0 || rg.ctrl.Memory.Len() != 0 || rg.ctrl.TrackedClients() != 0 {
				t.Fatalf("%d deployments, %d entries, %d clients after the cycles; want 0, 0, 0",
					rg.ctrl.Stats.Deployments, rg.ctrl.Memory.Len(), rg.ctrl.TrackedClients())
			}
		}
	})
}

// BenchmarkDispatchChurn is the ledger's control-path unit: one op is a
// packet-in that misses the FlowMemory, its dispatch to the running
// instance, the redirect pair's install, the pair's idle expiry and the
// flow-removed that comes back, and the memorized flow's own expiry.
// allocs/op must stay 0.
func BenchmarkDispatchChurn(b *testing.B) {
	rg := newChurnRig(b, 2*time.Second, nil)
	for i := 0; i < 5; i++ {
		rg.punt(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.punt(0)
	}
	b.StopTimer()
	if rg.ctrl.Memory.Len() != 0 || rg.ctrl.CookieCount() != 0 || rg.k.Pending() != 0 {
		b.Fatalf("state left after the ops: %d entries, %d cookies, %d events", rg.ctrl.Memory.Len(), rg.ctrl.CookieCount(), rg.k.Pending())
	}
	rg.k.Close()
}
