package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

func mkInst(svc string, addr simnet.Addr, port int) cluster.Instance {
	return cluster.Instance{Service: svc, Cluster: "c", Addr: addr, Port: port}
}

// clientFlows returns how many memorized flows a client currently has.
func (m *FlowMemory) clientFlows(client simnet.Addr) int {
	return m.client(m.ids.Number(client)).n
}

func mkKey(client string) FlowKey {
	return FlowKey{Client: simnet.Addr(client), VIP: "203.0.113.10", Port: 80}
}

func TestFlowMemoryPutGet(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Minute)
	in := mkInst("svc", "10.0.0.1", 32000)
	m.Put(mkKey("10.0.1.1"), in)
	got, ok := m.Get(mkKey("10.0.1.1"))
	if !ok || got != in {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := m.Get(mkKey("10.0.1.2")); ok {
		t.Fatal("unexpected hit")
	}
	if m.hits != 1 || m.misses != 1 {
		t.Fatalf("hits/misses = %d/%d", m.hits, m.misses)
	}
}

func TestFlowMemoryIdleExpiry(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Second)
	m.Put(mkKey("10.0.1.1"), mkInst("svc", "10.0.0.1", 32000))
	k.RunUntil(500 * time.Millisecond)
	if m.Len() != 1 {
		t.Fatal("entry expired early")
	}
	k.RunUntil(3 * time.Second)
	if m.Len() != 0 {
		t.Fatal("entry not expired after idle timeout")
	}
}

func TestFlowMemoryTouchDelaysExpiry(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Second)
	key := mkKey("10.0.1.1")
	m.Put(key, mkInst("svc", "10.0.0.1", 32000))
	// Touch via Get every 800ms.
	k.Go("toucher", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(800 * time.Millisecond)
			if _, ok := m.Get(key); !ok {
				t.Errorf("entry lost at %v despite traffic", p.Now())
				return
			}
		}
	})
	k.RunUntil(4 * time.Second)
	if m.Len() != 1 {
		t.Fatal("entry should still be alive right after last touch")
	}
	k.RunUntil(10 * time.Second)
	if m.Len() != 0 {
		t.Fatal("entry survived idle after traffic stopped")
	}
}

func TestFlowMemoryIdleInstanceCallback(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Second)
	var idle []cluster.Instance
	m.OnIdleInstance = func(in cluster.Instance) { idle = append(idle, in) }
	in := mkInst("svc", "10.0.0.1", 32000)
	m.Put(mkKey("10.0.1.1"), in)
	m.Put(mkKey("10.0.1.2"), in)
	if m.InstanceFlows(in) != 2 {
		t.Fatalf("InstanceFlows = %d", m.InstanceFlows(in))
	}
	k.RunUntil(5 * time.Second)
	// The callback fires exactly once, when the *last* flow expires.
	if len(idle) != 1 || idle[0] != in {
		t.Fatalf("idle callbacks = %+v, want one for the instance", idle)
	}
}

func TestFlowMemoryRedirectService(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Minute)
	old := mkInst("svc", "10.0.0.1", 32000)
	other := mkInst("other", "10.0.0.1", 32001)
	m.Put(mkKey("10.0.1.1"), old)
	m.Put(mkKey("10.0.1.2"), old)
	m.Put(mkKey("10.0.1.3"), other)
	next := mkInst("svc", "10.0.0.1", 30000)
	if n := m.RedirectService("svc", next); n != 2 {
		t.Fatalf("redirected = %d, want 2", n)
	}
	for _, c := range []string{"10.0.1.1", "10.0.1.2"} {
		got, _ := m.Get(mkKey(c))
		if got != next {
			t.Fatalf("client %s still at %+v", c, got)
		}
	}
	if got, _ := m.Get(mkKey("10.0.1.3")); got != other {
		t.Fatalf("unrelated service re-pointed: %+v", got)
	}
	// Redirecting again is a no-op.
	if n := m.RedirectService("svc", next); n != 0 {
		t.Fatalf("second redirect = %d, want 0", n)
	}
}

// TestRedirectServiceIdlesInPutOrder: a redirect that moves the last flow
// off several instances tells OnIdleInstance about them in the order their
// flows were put, in every rig — under AutoScaleDown each call starts a
// scale-down process, so the order is model behaviour.
func TestRedirectServiceIdlesInPutOrder(t *testing.T) {
	var want []cluster.Instance
	for i := 0; i < 4; i++ {
		want = append(want, mkInst("svc", simnet.Addr(fmt.Sprintf("10.0.0.%d", 4-i)), 32000+i))
	}
	for rig := 0; rig < 20; rig++ {
		m := NewFlowMemory(sim.New(1), time.Minute)
		var idled []cluster.Instance
		m.OnIdleInstance = func(in cluster.Instance) { idled = append(idled, in) }
		for i, in := range want {
			m.Put(mkKey(fmt.Sprintf("10.0.1.%d", i)), in)
		}
		if n := m.RedirectService("svc", mkInst("svc", "10.0.0.9", 30000)); n != 4 {
			t.Fatalf("redirected = %d, want 4", n)
		}
		if !slices.Equal(idled, want) {
			t.Fatalf("rig %d: instances idled in order %v, want the Put order %v", rig, idled, want)
		}
	}
}

func TestFlowMemoryRePutSameKey(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Minute)
	a := mkInst("svc", "10.0.0.1", 32000)
	b := mkInst("svc", "10.0.0.1", 30000)
	key := mkKey("10.0.1.1")
	var idle int
	m.OnIdleInstance = func(cluster.Instance) { idle++ }
	m.Put(key, a)
	m.Put(key, b) // re-point: instance a now has zero flows
	if idle != 1 {
		t.Fatalf("idle callbacks = %d, want 1 (a became unreferenced)", idle)
	}
	if got, _ := m.Get(key); got != b {
		t.Fatalf("Get = %+v, want b", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Property: per-instance counters always equal the number of entries that
// reference the instance, under arbitrary Put/Redirect sequences.
func TestQuickFlowMemoryCounters(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.New(3)
		m := NewFlowMemory(k, time.Hour)
		insts := []cluster.Instance{
			mkInst("s1", "10.0.0.1", 1), mkInst("s1", "10.0.0.1", 2),
			mkInst("s2", "10.0.0.2", 1), mkInst("s2", "10.0.0.2", 2),
		}
		clients := []string{"a", "b", "c", "d", "e"}
		for i, op := range ops {
			in := insts[int(op)%len(insts)]
			switch {
			case op%3 == 2:
				m.RedirectService(in.Service, in)
			default:
				m.Put(mkKey(clients[i%len(clients)]), in)
			}
		}
		// Verify counters against entries.
		counts := map[instanceKey]int{}
		for _, e := range m.Entries() {
			counts[m.instanceOf(e.Instance)]++
		}
		for _, in := range insts {
			if m.InstanceFlows(in) != counts[m.instanceOf(in)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
