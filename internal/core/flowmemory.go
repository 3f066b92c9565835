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

// flowID is a FlowKey by its addresses' numbers (simnet.Numbering): what the
// memory is keyed by, and what a packet-in's packet carries.
type flowID struct {
	client, vip uint32
	port        int
}

// MemEntry is one memorized flow: which instance a client's requests to a
// registered service address are redirected to. The memory recycles its
// entries, so a *MemEntry never leaves it: Entries and ClientEntries hand out
// copies.
type MemEntry struct {
	Key      FlowKey
	Instance cluster.Instance
	// client and vip are the numbers of Key's addresses, inst of Instance's.
	client, vip, inst uint32
	// idle is the entry's idle clock: Get and a re-pointing Put touch it, and
	// it evicts the entry when it runs out, through evict, bound once per
	// entry object. Unexported, so that the copies cannot stop or re-arm
	// anything.
	idle  sim.Idle
	evict func()
	// links chain the entry into its client's flows (perClient) and its
	// service's (perService).
	links [2]link
}

// link is an entry's place in one chain.
type link struct{ prev, next *MemEntry }

// The chains an entry is linked into, by index into MemEntry.links.
const (
	byClient = iota
	byService
)

// chain is a list of entries through one of their links, in the order they
// were linked, and its length.
type chain struct {
	head, tail *MemEntry
	n          int
}

// push appends e through its link i.
func (c *chain) push(e *MemEntry, i int) {
	e.links[i] = link{prev: c.tail}
	if c.tail != nil {
		c.tail.links[i].next = e
	} else {
		c.head = e
	}
	c.tail, c.n = e, c.n+1
}

// unlink takes e, linked through its link i, out of c.
func (c *chain) unlink(e *MemEntry, i int) {
	l := e.links[i]
	if l.prev != nil {
		l.prev.links[i].next = l.next
	} else {
		c.head = l.next
	}
	if l.next != nil {
		l.next.links[i].prev = l.prev
	} else {
		c.tail = l.prev
	}
	e.links[i] = link{}
	c.n--
}

// instanceKey is an instance endpoint, its address by number.
type instanceKey struct {
	addr uint32
	port int
}

// id returns e's key by number.
func (e *MemEntry) id() flowID { return flowID{e.client, e.vip, e.Key.Port} }

// endpoint returns e's instance endpoint.
func (e *MemEntry) endpoint() instanceKey { return instanceKey{e.inst, e.Instance.Port} }

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
// client's flows). Addresses are keyed by number: the controller's
// packet-ins carry them, and a caller that holds only the address strings
// has them numbered on the way in.
type FlowMemory struct {
	k    *sim.Kernel
	idle time.Duration
	// ids numbers addresses: the controller's network's numbering, whose
	// numbers its packet-ins carry, or the memory's own.
	ids     *simnet.Numbering
	entries map[flowID]*MemEntry
	free    []*MemEntry // evicted entries, for the next new key
	perInst map[instanceKey]int
	// perService holds each service's flows, in the order they were pointed
	// at the service; an emptied chain stays in place for the service's next
	// flow. perClient holds each client's flows by the client's number; a
	// chain with n == 0 is a client with none.
	perService map[string]*chain
	perClient  []chain
	// draining marks instances with a scale-down in flight; the value flips
	// to true when a flow is pointed at the instance mid-drain (see
	// BeginDrain / EndDrain).
	draining map[instanceKey]bool
	// OnIdleInstance, when set, is invoked (in kernel context) when the
	// last memorized flow to an instance expires.
	OnIdleInstance func(inst cluster.Instance)
	// OnIdleClient, when set, is invoked (in kernel context) with the
	// client's address and its number when the client's last memorized flow
	// expires — the controller uses it to evict the client's location
	// record.
	OnIdleClient func(client simnet.Addr, id uint32)
	// Lookups that hit and missed, entries evicted, drains begun and drains
	// a flow interrupted; high is the most entries ever memorized at once
	// (the memory-occupancy figure the steering sweep reports).
	hits, misses, evictions, drains, drainInterrupts uint64
	high                                             int
}

// SetObs registers the reader of the memory's counts. A nil registry
// registers nothing.
func (m *FlowMemory) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Register(func(add func(obs.Sample)) {
		counter := func(name string, v uint64) { add(obs.Sample{Name: name, Kind: "counter", Value: float64(v)}) }
		counter("flowmemory_hits_total", m.hits)
		counter("flowmemory_misses_total", m.misses)
		counter("flowmemory_evictions_total", m.evictions)
		counter("flowmemory_drains_total", m.drains)
		counter("flowmemory_drain_interruptions_total", m.drainInterrupts)
		add(obs.Sample{Name: "flowmemory_entries", Kind: "gauge", Value: float64(len(m.entries))})
		add(obs.Sample{Name: "flowmemory_entries_max", Kind: "gauge", Value: float64(m.high)})
	})
}

// NewFlowMemory creates a FlowMemory with the given idle timeout.
func NewFlowMemory(k *sim.Kernel, idle time.Duration) *FlowMemory {
	return &FlowMemory{
		k:          k,
		idle:       idle,
		ids:        new(simnet.Numbering),
		entries:    make(map[flowID]*MemEntry),
		perInst:    make(map[instanceKey]int),
		perService: make(map[string]*chain),
	}
}

// idOf numbers key's addresses.
func (m *FlowMemory) idOf(key FlowKey) flowID {
	return flowID{m.ids.Number(key.Client), m.ids.Number(key.VIP), key.Port}
}

// instanceOf returns inst's endpoint key, its address numbered.
func (m *FlowMemory) instanceOf(inst cluster.Instance) instanceKey {
	return instanceKey{m.ids.Number(inst.Addr), inst.Port}
}

// Readers number nothing: an address without a number is in no flow, and
// its key, holding 0, finds nothing.

// lookupID returns key by its addresses' numbers.
func (m *FlowMemory) lookupID(key FlowKey) flowID {
	return flowID{m.ids.Lookup(key.Client), m.ids.Lookup(key.VIP), key.Port}
}

// lookupInstance returns inst's endpoint key.
func (m *FlowMemory) lookupInstance(inst cluster.Instance) instanceKey {
	return instanceKey{m.ids.Lookup(inst.Addr), inst.Port}
}

// client returns the flows of the client numbered id.
func (m *FlowMemory) client(id uint32) chain {
	if int(id) < len(m.perClient) {
		return m.perClient[id]
	}
	return chain{}
}

// Len returns the number of memorized flows.
func (m *FlowMemory) Len() int { return len(m.entries) }

// InstanceFlows returns how many memorized flows point at the instance.
func (m *FlowMemory) InstanceFlows(inst cluster.Instance) int {
	return m.perInst[m.lookupInstance(inst)]
}

// ClientEntries returns a snapshot of the client's memorized flows, sorted
// by service address — the order the handover path re-anchors a moving
// client's flows in.
func (m *FlowMemory) ClientEntries(client simnet.Addr) []MemEntry {
	cf := m.client(m.ids.Lookup(client))
	if cf.n == 0 {
		return nil
	}
	out := make([]MemEntry, 0, cf.n)
	for e := cf.head; e != nil; e = e.links[byClient].next {
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
	if sf := m.perService[service]; sf != nil {
		return sf.n
	}
	return 0
}

// BeginDrain atomically re-checks that no memorized flow points at the
// instance and, if so, marks it as draining. It returns false — and marks
// nothing — when flows exist, in which case the caller must abort the
// scale-down. While the mark is set, any Put or RedirectService that points
// a flow at the instance records the interruption for EndDrain.
func (m *FlowMemory) BeginDrain(inst cluster.Instance) bool {
	// The mark is looked up by number when a flow is pointed at the
	// instance, so the address is numbered here, not just looked up.
	ik := m.instanceOf(inst)
	if m.perInst[ik] > 0 {
		return false
	}
	if m.draining == nil {
		m.draining = make(map[instanceKey]bool)
	}
	m.draining[ik] = false
	m.drains++
	return true
}

// EndDrain clears the draining mark and reports whether a flow was pointed
// at the instance while the drain was in progress — the signal that the
// scaled-down instance must be brought back.
func (m *FlowMemory) EndDrain(inst cluster.Instance) (interrupted bool) {
	ik := m.lookupInstance(inst)
	interrupted = m.draining[ik]
	delete(m.draining, ik)
	if interrupted {
		m.drainInterrupts++
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
	if e := m.get(m.lookupID(key)); e != nil {
		return e.Instance, true
	}
	return cluster.Instance{}, false
}

// get is Get by the key's numbers: the entry, or nil on a miss. The entry
// stays the memory's.
func (m *FlowMemory) get(id flowID) *MemEntry {
	e := m.entries[id]
	if e == nil {
		m.misses++
		return nil
	}
	m.hits++
	e.idle.Touch(m.k.Now())
	return e
}

// Put memorizes (or re-points) a flow.
func (m *FlowMemory) Put(key FlowKey, inst cluster.Instance) { m.put(key, m.idOf(key), inst) }

// put is Put with the key's numbers, id. It returns the entry, which stays
// the memory's.
func (m *FlowMemory) put(key FlowKey, id flowID, inst cluster.Instance) *MemEntry {
	ik := m.instanceOf(inst)
	if old, ok := m.entries[id]; ok {
		m.detachService(old)
		m.decInstance(old)
		old.Instance, old.inst = inst, ik.addr
		old.idle.Touch(m.k.Now())
		m.attachService(old)
		m.perInst[ik]++
		m.noteAttach(ik)
		return old
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
	e.client, e.vip, e.inst = id.client, id.vip, ik.addr
	m.entries[id] = e
	m.attachService(e)
	m.perInst[ik]++
	m.noteAttach(ik)
	for int(id.client) >= len(m.perClient) {
		m.perClient = append(m.perClient, chain{})
	}
	m.perClient[id.client].push(e, byClient)
	m.high = max(m.high, len(m.entries))
	e.idle.Start(m.k, m.idle, e.evict)
	return e
}

// RedirectService re-points every memorized flow of a service to a new
// instance (fig. 3: once the optimal instance runs, future requests are
// redirected there). It returns how many entries were re-pointed. The
// per-service index makes this proportional to the service's own flows,
// not the whole memory, and walks them in the order they were pointed at
// the service, so the instances it idles are told in that order.
func (m *FlowMemory) RedirectService(service string, to cluster.Instance) int {
	n := 0
	ik := m.instanceOf(to)
	sf := m.perService[service]
	if sf == nil {
		return 0
	}
	for e := sf.head; e != nil; e = e.links[byService].next {
		if e.endpoint() == ik {
			continue
		}
		m.decInstance(e)
		e.Instance, e.inst = to, ik.addr
		m.perInst[ik]++
		m.noteAttach(ik)
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
	m.evictions++
	delete(m.entries, e.id())
	m.detachService(e)
	m.decInstance(e)
	cf := &m.perClient[e.client]
	cf.unlink(e, byClient)
	m.free = append(m.free, e)
	if cf.n == 0 && m.OnIdleClient != nil {
		m.OnIdleClient(e.Key.Client, e.client)
	}
}

// attachService appends e to its service's flows.
func (m *FlowMemory) attachService(e *MemEntry) {
	sf := m.perService[e.Instance.Service]
	if sf == nil {
		sf = new(chain)
		m.perService[e.Instance.Service] = sf
	}
	sf.push(e, byService)
}

// detachService takes e out of its service's flows.
func (m *FlowMemory) detachService(e *MemEntry) {
	m.perService[e.Instance.Service].unlink(e, byService)
}

// decInstance takes e's flow off its instance's count.
func (m *FlowMemory) decInstance(e *MemEntry) {
	ik := e.endpoint()
	m.perInst[ik]--
	if m.perInst[ik] <= 0 {
		delete(m.perInst, ik)
		if m.OnIdleInstance != nil {
			m.OnIdleInstance(e.Instance)
		}
	}
}
