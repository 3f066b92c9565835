package core

import (
	"fmt"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// TestAllocsFlowMemoryAccessors pins the count accessors the steering
// occupancy metrics poll per request — ServiceFlows, ClientFlows,
// InstanceFlows — plus the Get/Put hit path at zero allocations: they must
// be indexed O(1) reads, never scans over the entries.
func TestAllocsFlowMemoryAccessors(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Minute)
	inst := cluster.Instance{Service: "svc-0", Cluster: "edge", Addr: "10.0.0.50", Port: 30000}
	for i := 0; i < 200; i++ {
		key := FlowKey{Client: simAddr(i), VIP: "203.0.113.10", Port: 80}
		m.Put(key, inst)
	}
	probe := FlowKey{Client: simAddr(17), VIP: "203.0.113.10", Port: 80}

	if n := testing.AllocsPerRun(200, func() {
		if m.ServiceFlows("svc-0") == 0 || m.clientFlows(probe.Client) == 0 || m.InstanceFlows(inst) == 0 {
			t.Fatal("index lookup lost entries")
		}
	}); n != 0 {
		t.Errorf("%.1f allocs per count-accessor round, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := m.Get(probe); !ok {
			t.Fatal("hit path missed")
		}
	}); n != 0 {
		t.Errorf("%.1f allocs per Get hit, want 0", n)
	}
	// Re-pointing an existing entry reuses it: no allocation either.
	if n := testing.AllocsPerRun(200, func() { m.Put(probe, inst) }); n != 0 {
		t.Errorf("%.1f allocs per re-point Put, want 0", n)
	}
}

// TestAllocsFlowMemoryPutEvict pins the memory's write side at zero
// allocations once warm: a Put of a key the memory does not hold takes an
// evicted entry off the free list, its idle clock restarts with the entry's
// bound evict callback, and the eviction that ends the cycle — with its
// idle-instance and idle-client callbacks — recycles it again. Counting is
// free: the same holds with a registry attached.
func TestAllocsFlowMemoryPutEvict(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		k := sim.New(1)
		m := NewFlowMemory(k, time.Second)
		m.SetObs(reg)
		idleClients := 0
		m.OnIdleClient = func(simnet.Addr, uint32) { idleClients++ }
		inst := cluster.Instance{Service: "svc-0", Cluster: "edge", Addr: "10.0.0.50", Port: 30000}
		keys := make([]FlowKey, 8)
		for i := range keys {
			keys[i] = FlowKey{Client: simAddr(i % 4), VIP: "203.0.113.10", Port: 80 + i/4}
		}
		cycle := func() {
			for _, key := range keys {
				m.Put(key, inst)
			}
			k.Run()
			if m.Len() != 0 || m.clientFlows(keys[0].Client) != 0 {
				t.Fatal("the entries did not idle out")
			}
		}
		for i := 0; i < 5; i++ {
			cycle()
		}
		before := idleClients
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("registry %v: %.1f allocs per cycle of %d new-key Puts and their evictions, want 0", reg != nil, n, len(keys))
		}
		if got := idleClients - before; got != 101*4 {
			t.Errorf("%d idle-client callbacks over 101 cycles, want %d", got, 101*4)
		}
	}
}

// simAddr fabricates a distinct client address per index (allocation happens
// in setup, outside the pinned closures).
func simAddr(i int) simnet.Addr {
	return simnet.Addr(fmt.Sprintf("10.0.1.%d", i))
}
