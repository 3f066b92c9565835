package core

import (
	"sort"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// FlowKey identifies one memorized client->service flow.
type FlowKey struct {
	Client simnet.Addr
	VIP    simnet.Addr
	Port   int
}

// MemEntry is one memorized flow: which instance a client's requests to a
// registered service address are redirected to. The memory recycles its
// entries, so a *MemEntry never leaves it: Entries and ClientEntries hand out
// copies.
type MemEntry struct {
	Key      FlowKey
	Instance cluster.Instance
	// idle is the entry's idle clock: Get and a re-pointing Put touch it, and
	// it evicts the entry when it runs out, through evict, bound once per
	// entry object. Unexported, so that the copies cannot stop or re-arm
	// anything.
	idle  sim.Idle
	evict func()
	// prev and next chain the entries of one client (perClient).
	prev, next *MemEntry
}

type instanceKey struct {
	addr simnet.Addr
	port int
}

// FlowMemory memorizes installed redirect flows (paper §V). It allows the
// switch-side idle timeouts to stay low — a returning client is re-served
// from memory without re-running the scheduler — while the memory's own,
// longer idle timeout both removes stale flows and signals when a service
// instance has become idle (no memorized flows left), enabling automatic
// scale-down.
//
// Entries are indexed three ways so the controller's hot paths stay O(1):
// by flow key (Get/Put), by instance endpoint (InstanceFlows, the load
// signal), and by service name (RedirectService re-points only that
// service's entries instead of walking the whole memory). A per-client
// index additionally drives the dispatcher's location-record GC and the
// handover path's re-anchoring (ClientEntries walks only the moving
// client's flows).
type FlowMemory struct {
	k          *sim.Kernel
	idle       time.Duration
	entries    map[FlowKey]*MemEntry
	free       []*MemEntry // evicted entries, for the next new key
	perInst    map[instanceKey]int
	perService map[string]map[*MemEntry]struct{}
	perClient  map[simnet.Addr]clientFlows
	// draining marks instances with a scale-down in flight; the value flips
	// to true when a flow is pointed at the instance mid-drain (see
	// BeginDrain / EndDrain).
	draining map[instanceKey]bool
	// OnIdleInstance, when set, is invoked (in kernel context) when the
	// last memorized flow to an instance expires.
	OnIdleInstance func(inst cluster.Instance)
	// OnIdleClient, when set, is invoked (in kernel context) when a
	// client's last memorized flow expires — the controller uses it to
	// evict the client's location record.
	OnIdleClient func(client simnet.Addr)
	// Obs counter handles (nil without SetObs — *obs.Counter no-ops on nil).
	cHits, cMisses, cEvictions, cDrains, cDrainInterrupts *obs.Counter
	// gEntries tracks the live entry count (its high-water mark is the
	// memory-occupancy figure the steering sweep reports).
	gEntries *obs.Gauge
}

// clientFlows is one client's memorized flows: a chain through
// MemEntry.prev/next, and its length.
type clientFlows struct {
	head *MemEntry
	n    int
}

// SetObs registers the memory's counters in the registry. A nil registry
// leaves every handle nil, keeping the counting free.
func (m *FlowMemory) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.cHits = reg.Counter("flowmemory_hits_total")
	m.cMisses = reg.Counter("flowmemory_misses_total")
	m.cEvictions = reg.Counter("flowmemory_evictions_total")
	m.cDrains = reg.Counter("flowmemory_drains_total")
	m.cDrainInterrupts = reg.Counter("flowmemory_drain_interruptions_total")
	m.gEntries = reg.Gauge("flowmemory_entries")
}

// NewFlowMemory creates a FlowMemory with the given idle timeout.
func NewFlowMemory(k *sim.Kernel, idle time.Duration) *FlowMemory {
	return &FlowMemory{
		k:          k,
		idle:       idle,
		entries:    make(map[FlowKey]*MemEntry),
		perInst:    make(map[instanceKey]int),
		perService: make(map[string]map[*MemEntry]struct{}),
		perClient:  make(map[simnet.Addr]clientFlows),
	}
}

// Len returns the number of memorized flows.
func (m *FlowMemory) Len() int { return len(m.entries) }

// InstanceFlows returns how many memorized flows point at the instance.
func (m *FlowMemory) InstanceFlows(inst cluster.Instance) int {
	return m.perInst[instanceKey{inst.Addr, inst.Port}]
}

// ClientFlows returns how many memorized flows a client currently has.
func (m *FlowMemory) ClientFlows(client simnet.Addr) int {
	return m.perClient[client].n
}

// ClientEntries returns a snapshot of the client's memorized flows, sorted
// by service address — the order the handover path re-anchors a moving
// client's flows in.
func (m *FlowMemory) ClientEntries(client simnet.Addr) []MemEntry {
	cf := m.perClient[client]
	if cf.n == 0 {
		return nil
	}
	out := make([]MemEntry, 0, cf.n)
	for e := cf.head; e != nil; e = e.next {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.VIP != out[j].Key.VIP {
			return out[i].Key.VIP < out[j].Key.VIP
		}
		return out[i].Key.Port < out[j].Key.Port
	})
	return out
}

// ServiceFlows returns how many memorized flows point at any instance of
// the service.
func (m *FlowMemory) ServiceFlows(service string) int {
	return len(m.perService[service])
}

// BeginDrain atomically re-checks that no memorized flow points at the
// instance and, if so, marks it as draining. It returns false — and marks
// nothing — when flows exist, in which case the caller must abort the
// scale-down. While the mark is set, any Put or RedirectService that points
// a flow at the instance records the interruption for EndDrain.
func (m *FlowMemory) BeginDrain(inst cluster.Instance) bool {
	ik := instanceKey{inst.Addr, inst.Port}
	if m.perInst[ik] > 0 {
		return false
	}
	if m.draining == nil {
		m.draining = make(map[instanceKey]bool)
	}
	m.draining[ik] = false
	m.cDrains.Inc()
	return true
}

// EndDrain clears the draining mark and reports whether a flow was pointed
// at the instance while the drain was in progress — the signal that the
// scaled-down instance must be brought back.
func (m *FlowMemory) EndDrain(inst cluster.Instance) (interrupted bool) {
	ik := instanceKey{inst.Addr, inst.Port}
	interrupted = m.draining[ik]
	delete(m.draining, ik)
	if interrupted {
		m.cDrainInterrupts.Inc()
	}
	return interrupted
}

// noteAttach flags an in-progress drain of the instance a flow was just
// pointed at.
func (m *FlowMemory) noteAttach(ik instanceKey) {
	if _, ok := m.draining[ik]; ok {
		m.draining[ik] = true
	}
}

// Get returns the memorized instance for a key and refreshes its idle
// timer. The second result is false on a miss.
func (m *FlowMemory) Get(key FlowKey) (cluster.Instance, bool) {
	e, ok := m.entries[key]
	if !ok {
		m.cMisses.Inc()
		return cluster.Instance{}, false
	}
	m.cHits.Inc()
	e.idle.Touch(m.k.Now())
	return e.Instance, true
}

// Put memorizes (or re-points) a flow.
func (m *FlowMemory) Put(key FlowKey, inst cluster.Instance) {
	ik := instanceKey{inst.Addr, inst.Port}
	if old, ok := m.entries[key]; ok {
		m.detachService(old)
		m.decInstance(old.Instance)
		old.Instance = inst
		old.idle.Touch(m.k.Now())
		m.attachService(old)
		m.perInst[ik]++
		m.noteAttach(ik)
		return
	}
	var e *MemEntry
	if n := len(m.free); n > 0 {
		e, m.free[n-1] = m.free[n-1], nil
		m.free = m.free[:n-1]
	} else {
		e = new(MemEntry)
		e.evict = func() { m.remove(e) }
	}
	e.Key, e.Instance = key, inst
	m.entries[key] = e
	m.attachService(e)
	m.perInst[ik]++
	m.noteAttach(ik)
	cf := m.perClient[key.Client]
	if cf.head != nil {
		cf.head.prev = e
	}
	e.prev, e.next = nil, cf.head
	m.perClient[key.Client] = clientFlows{head: e, n: cf.n + 1}
	m.gEntries.Set(int64(len(m.entries)))
	e.idle.Start(m.k, m.idle, e.evict)
}

// RedirectService re-points every memorized flow of a service to a new
// instance (fig. 3: once the optimal instance runs, future requests are
// redirected there). It returns how many entries were re-pointed. The
// per-service index makes this proportional to the service's own flows,
// not the whole memory.
func (m *FlowMemory) RedirectService(service string, to cluster.Instance) int {
	n := 0
	for e := range m.perService[service] {
		if e.Instance.Addr == to.Addr && e.Instance.Port == to.Port {
			continue
		}
		m.decInstance(e.Instance)
		e.Instance = to
		m.perInst[instanceKey{to.Addr, to.Port}]++
		m.noteAttach(instanceKey{to.Addr, to.Port})
		n++
	}
	return n
}

// Entries returns a snapshot of all memorized flows, ordered by client, then
// VIP, then port, so that what is printed from it does not depend on map
// iteration order.
func (m *FlowMemory) Entries() []MemEntry {
	out := make([]MemEntry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.VIP != b.VIP {
			return a.VIP < b.VIP
		}
		return a.Port < b.Port
	})
	return out
}

// remove drops e, stops its idle clock (a no-op when the clock itself calls
// remove, as today), so a dropped entry can never leave an event behind, and
// recycles it.
func (m *FlowMemory) remove(e *MemEntry) {
	e.idle.Stop()
	m.cEvictions.Inc()
	delete(m.entries, e.Key)
	m.gEntries.Set(int64(len(m.entries)))
	m.detachService(e)
	m.decInstance(e.Instance)
	client := e.Key.Client
	cf := m.perClient[client]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		cf.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
	m.free = append(m.free, e)
	if cf.n--; cf.n > 0 {
		m.perClient[client] = cf
		return
	}
	delete(m.perClient, client)
	if m.OnIdleClient != nil {
		m.OnIdleClient(client)
	}
}

func (m *FlowMemory) attachService(e *MemEntry) {
	svc := e.Instance.Service
	set := m.perService[svc]
	if set == nil {
		set = make(map[*MemEntry]struct{})
		m.perService[svc] = set
	}
	set[e] = struct{}{}
}

// detachService leaves an emptied set in place, for the service's next flow:
// there is one per service ever memorized.
func (m *FlowMemory) detachService(e *MemEntry) {
	delete(m.perService[e.Instance.Service], e)
}

func (m *FlowMemory) decInstance(inst cluster.Instance) {
	ik := instanceKey{inst.Addr, inst.Port}
	m.perInst[ik]--
	if m.perInst[ik] <= 0 {
		delete(m.perInst, ik)
		if m.OnIdleInstance != nil {
			m.OnIdleInstance(inst)
		}
	}
}
