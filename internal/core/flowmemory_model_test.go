package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// refMemory is the brute-force reference of FlowMemory: one map of entries,
// every count answered by a scan, and one Kernel.At closure per expiry
// check. It runs on its own kernel, stepped in lockstep with the memory's,
// and logs what FlowMemory reports through its callbacks.
type refMemory struct {
	k       *sim.Kernel
	idle    time.Duration
	entries map[FlowKey]*refEntry
	log     []string
}

type refEntry struct {
	key      FlowKey
	inst     cluster.Instance
	lastUsed sim.Time
}

func (m *refMemory) flowsTo(inst cluster.Instance) int {
	n := 0
	for _, e := range m.entries {
		if e.inst.Addr == inst.Addr && e.inst.Port == inst.Port {
			n++
		}
	}
	return n
}

// repoint moves e (already in the map) to inst; the instance it leaves is
// reported idle if no other flow points at it, before the new one counts.
func (m *refMemory) repoint(e *refEntry, inst cluster.Instance) {
	old := e.inst
	e.inst = cluster.Instance{}
	if m.flowsTo(old) == 0 {
		m.log = append(m.log, idleInstanceLine(m.k, old))
	}
	e.inst = inst
}

func (m *refMemory) put(key FlowKey, inst cluster.Instance) {
	if e, ok := m.entries[key]; ok {
		m.repoint(e, inst)
		e.lastUsed = m.k.Now()
		return
	}
	e := &refEntry{key: key, inst: inst, lastUsed: m.k.Now()}
	m.entries[key] = e
	m.scheduleExpiry(e)
}

func (m *refMemory) get(key FlowKey) (cluster.Instance, bool) {
	e, ok := m.entries[key]
	if !ok {
		return cluster.Instance{}, false
	}
	e.lastUsed = m.k.Now()
	return e.inst, true
}

func (m *refMemory) redirectService(service string, to cluster.Instance) int {
	n := 0
	for _, e := range m.entries {
		if e.inst.Service == service && (e.inst.Addr != to.Addr || e.inst.Port != to.Port) {
			m.repoint(e, to)
			n++
		}
	}
	return n
}

func (m *refMemory) scheduleExpiry(e *refEntry) {
	m.k.At(e.lastUsed+m.idle, func() {
		if m.entries[e.key] != e {
			return
		}
		if m.k.Now()-e.lastUsed < m.idle {
			m.scheduleExpiry(e)
			return
		}
		delete(m.entries, e.key)
		if m.flowsTo(e.inst) == 0 {
			m.log = append(m.log, idleInstanceLine(m.k, e.inst))
		}
		for _, o := range m.entries {
			if o.key.Client == e.key.Client {
				return
			}
		}
		m.log = append(m.log, idleClientLine(m.k, e.key.Client))
	})
}

func idleInstanceLine(k *sim.Kernel, inst cluster.Instance) string {
	return fmt.Sprintf("%v idle instance %s:%d", k.Now(), inst.Addr, inst.Port)
}

func idleClientLine(k *sim.Kernel, client simnet.Addr) string {
	return fmt.Sprintf("%v idle client %s", k.Now(), client)
}

// TestFlowMemoryMatchesBruteForce is the model-based check of FlowMemory's
// write path: random Put (new and re-pointing), Get refreshes,
// RedirectService and clock advances, with the memory compared against the
// reference after every step and at every timer instant in between, so the
// eviction instants and the order of the idle callbacks must agree exactly.
func TestFlowMemoryMatchesBruteForce(t *testing.T) {
	// Two instances per service: a redirect then idles at most one instance,
	// so the callback order does not hang on map iteration order.
	var insts []cluster.Instance
	for s := 0; s < 3; s++ {
		for i := 0; i < 2; i++ {
			insts = append(insts, mkInst(fmt.Sprintf("s%d", s), simnet.Addr(fmt.Sprintf("10.0.%d.%d", s, i)), 30000+i))
		}
	}
	var keys []FlowKey
	for c := 0; c < 6; c++ {
		for v := 0; v < 2; v++ {
			keys = append(keys, FlowKey{Client: simAddr(c), VIP: simnet.Addr(fmt.Sprintf("203.0.113.%d", v)), Port: 80})
		}
	}
	const idle = time.Second
	advances := []time.Duration{time.Millisecond, 300 * time.Millisecond, 700 * time.Millisecond, 2500 * time.Millisecond}
	steps := 10000
	if testing.Short() {
		steps = 2000
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(1)
		m := NewFlowMemory(k, idle)
		var log []string
		m.OnIdleInstance = func(inst cluster.Instance) { log = append(log, idleInstanceLine(k, inst)) }
		m.OnIdleClient = func(client simnet.Addr, _ uint32) { log = append(log, idleClientLine(k, client)) }
		ref := &refMemory{k: sim.New(1), idle: idle, entries: map[FlowKey]*refEntry{}}
		evictions := 0

		check := func() {
			t.Helper()
			if k.Now() != ref.k.Now() || m.Len() != len(ref.entries) {
				t.Fatalf("clock %v with %d entries, reference %v with %d", k.Now(), m.Len(), ref.k.Now(), len(ref.entries))
			}
			for _, e := range m.Entries() {
				if r := ref.entries[e.Key]; r == nil || r.inst != e.Instance || r.lastUsed != e.idle.Last() {
					t.Fatalf("entry %+v, reference %+v", e, r)
				}
			}
			services := map[string]int{}
			for _, in := range insts {
				if got, want := m.InstanceFlows(in), ref.flowsTo(in); got != want {
					t.Fatalf("InstanceFlows(%s:%d) = %d, reference %d", in.Addr, in.Port, got, want)
				}
				services[in.Service] += ref.flowsTo(in)
			}
			for svc, want := range services {
				if got := m.ServiceFlows(svc); got != want {
					t.Fatalf("ServiceFlows(%s) = %d, reference %d", svc, got, want)
				}
			}
			clients := map[simnet.Addr]int{}
			for key := range ref.entries {
				clients[key.Client]++
			}
			for _, key := range keys {
				if got, want := m.clientFlows(key.Client), clients[key.Client]; got != want {
					t.Fatalf("clientFlows(%s) = %d, reference %d", key.Client, got, want)
				}
			}
			if len(log) != len(ref.log) {
				t.Fatalf("%d idle callbacks, reference %d\n got %v\nwant %v", len(log), len(ref.log), log, ref.log)
			}
			for i := range log {
				if log[i] != ref.log[i] {
					t.Fatalf("idle callback %d: %q, reference %q", i, log[i], ref.log[i])
				}
			}
		}

		for step := 0; step < steps; step++ {
			key, in := keys[rng.Intn(len(keys))], insts[rng.Intn(len(insts))]
			switch op := rng.Intn(8); op {
			case 0, 1, 2:
				m.Put(key, in)
				ref.put(key, in)
			case 3, 4:
				got, ok := m.Get(key)
				want, wantOK := ref.get(key)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Get(%+v) = %+v %v, reference %+v %v", seed, step, key, got, ok, want, wantOK)
				}
			case 5:
				if got, want := m.RedirectService(in.Service, in), ref.redirectService(in.Service, in); got != want {
					t.Fatalf("seed %d step %d: RedirectService re-pointed %d flows, reference %d", seed, step, got, want)
				}
			default:
				// Stop at every instant the reference has a timer due, so an
				// eviction at the wrong instant cannot hide inside the step.
				target := k.Now() + advances[rng.Intn(len(advances))]
				for {
					w, ok := ref.k.NextWhen()
					if !ok || w > target {
						break
					}
					before := len(ref.entries)
					k.RunUntil(w)
					ref.k.RunUntil(w)
					evictions += before - len(ref.entries)
					check()
				}
				k.RunUntil(target)
				ref.k.RunUntil(target)
			}
			check()
		}
		if evictions < steps/100 || len(log) < steps/100 {
			t.Fatalf("seed %d: %d evictions, %d idle callbacks: the steps no longer exercise expiry", seed, evictions, len(log))
		}
		// Let everything idle out: nothing may stay queued for a dropped entry.
		k.RunUntil(k.Now() + 2*idle)
		ref.k.RunUntil(ref.k.Now() + 2*idle)
		check()
		if m.Len() != 0 || k.Pending() != 0 {
			t.Fatalf("seed %d: %d entries and %d pending events after the memory idled out", seed, m.Len(), k.Pending())
		}
	}
}

// TestAllocsFlowMemoryExpiryCheck pins the re-armable expiry timer: an entry
// kept alive by Get survives its expiry checks without allocating — each
// check re-arms the entry's one event.
func TestAllocsFlowMemoryExpiryCheck(t *testing.T) {
	const idle = time.Second
	k := sim.New(1)
	m := NewFlowMemory(k, idle)
	key := mkKey("10.0.1.1")
	m.Put(key, mkInst("svc", "10.0.0.1", 32000))
	checks := func() {
		for i := 0; i < 3; i++ {
			// A Get every 70 % of the timeout: each check finds the entry
			// refreshed and re-arms.
			k.RunUntil(k.Now() + idle*7/10)
			if _, ok := m.Get(key); !ok {
				t.Fatal("entry expired despite the refreshes")
			}
		}
	}
	for i := 0; i < 5; i++ {
		checks() // walk the wheel into warm slots
	}
	steps := k.Steps()
	if n := testing.AllocsPerRun(100, checks); n != 0 {
		t.Errorf("%.1f allocs per three refreshed expiry checks, want 0", n)
	}
	if fired := k.Steps() - steps; fired < 2*101 {
		t.Fatalf("%d expiry checks fired in 101 rounds, want at least two per round", fired)
	}
	if k.Pending() != 1 {
		t.Errorf("%d events pending for one entry, want 1", k.Pending())
	}
}
