package kube

import (
	"maps"
	"sort"
	"time"

	"transparentedge/internal/sim"
)

// ControllerConfig models reconcile characteristics of the controller
// manager.
type ControllerConfig struct {
	// ReconcileDelay is charged per reconcile pass (informer cache reads,
	// work item processing).
	ReconcileDelay time.Duration
	// Workers is the parallel worker count per controller (Kubernetes'
	// default concurrent syncs is 5). Bursts of deployments are absorbed
	// by parallel workers; a single deployment still pays the full chain.
	Workers int
}

// DefaultControllerConfig mirrors a lightly loaded controller manager.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{ReconcileDelay: 60 * time.Millisecond, Workers: 5}
}

// workQueue is a keyed work queue with the kubernetes workqueue semantics:
// a key is processed by at most one worker at a time, duplicate enqueues of
// a pending key coalesce, and a key enqueued while active is re-processed
// once the active pass finishes (level-based reconciliation). A worker is a
// continuation over one key at a time, not a process; an idle one is parked
// on keys and costs nothing.
type workQueue struct {
	k         *sim.Kernel
	keys      *sim.Chan[string] // queued keys, oldest first
	queued    map[string]bool
	active    map[string]bool
	again     map[string]bool
	delay     time.Duration
	reconcile sim.Step[worker] // a pass's first API request; the pass ends with w.done
}

func newWorkQueue(k *sim.Kernel) *workQueue {
	return &workQueue{
		k:      k,
		keys:   sim.NewChan[string](k),
		queued: make(map[string]bool),
		active: make(map[string]bool),
		again:  make(map[string]bool),
	}
}

// worker is a controller's pass over key, with what it has read so far.
type worker struct {
	sim.Cont[worker]
	api  *APIServer
	q    *workQueue
	key  string
	d    *Deployment
	rs   *ReplicaSet
	pods []*Pod
	n    int // pods still to create
}

// serve gives the queue cfg.Workers workers (at least one), whose passes pay
// cfg.ReconcileDelay and then request reconcile, on api. They start parked on
// the queue: as processes they parked one zero-delay event after their start,
// and no key can be queued before then — Adds come from watch deliveries,
// which the queue subscribed to after that event was scheduled.
func (q *workQueue) serve(api *APIServer, cfg ControllerConfig, reconcile sim.Step[worker]) {
	q.delay, q.reconcile = cfg.ReconcileDelay, reconcile
	for i := 0; i < max(cfg.Workers, 1); i++ {
		w := &worker{api: api, q: q}
		w.Init(q.k, w, api.cfg.RequestLatency)
		w.Park(q.keys, take)
	}
}

// Add enqueues a key (coalescing duplicates). A parked worker takes the
// queue's head one zero-delay event later, after everything already
// scheduled for this instant: under a burst, whether a later Add of the
// instant finds its key queued or active depends on that position (DESIGN
// §21).
func (q *workQueue) Add(key string) {
	if q.active[key] {
		q.again[key] = true
		return
	}
	if q.queued[key] {
		return
	}
	q.queued[key] = true
	q.keys.Send(key)
}

// take starts a pass over the queue's head, or parks again if the queue is
// empty: a pass that ended since the wake-up took the key.
func take(w *worker) sim.Step[worker] {
	q := w.q
	key, ok := q.keys.TryRecv()
	if !ok {
		w.Park(q.keys, take)
		return nil
	}
	w.key = key
	delete(q.queued, key)
	q.active[w.key] = true
	w.Sleep(q.delay, func(w *worker) sim.Step[worker] { return w.q.reconcile })
	return nil
}

// done ends w's pass. A key Added while it was active is queued again, and
// w takes the next key at once, as a worker process's next receive did.
func (w *worker) done() sim.Step[worker] {
	q := w.q
	delete(q.active, w.key)
	if q.again[w.key] {
		delete(q.again, w.key)
		q.Add(w.key)
	}
	w.d, w.rs, w.pods = nil, nil, nil
	return take(w)
}

// RunDeploymentController starts the Deployment controller: level-based
// reconciliation ensuring each Deployment owns one ReplicaSet with matching
// replica count.
func RunDeploymentController(api *APIServer, cfg ControllerConfig) {
	q := newWorkQueue(api.k)
	api.relay(KindDeployment, func(ev Event) { q.Add(ev.Name) })
	q.serve(api, cfg, reconcileDeployment)
}

func rsName(deployment string) string { return deployment + "-rs" }

// reconcileDeployment is the Deployment controller's pass over w.key, one
// API request per step.
func reconcileDeployment(w *worker) sim.Step[worker] {
	d, err := w.api.Deployments.Get(nil, w.key)
	if err != nil {
		return deploymentCascade
	}
	w.d = d
	return deploymentOwnRS
}

// deploymentCascade deletes the ReplicaSet of a Deployment that is gone.
func deploymentCascade(w *worker) sim.Step[worker] {
	if _, err := w.api.ReplicaSets.Get(nil, rsName(w.key)); err != nil {
		return w.done()
	}
	return func(w *worker) sim.Step[worker] {
		w.api.ReplicaSets.Delete(nil, rsName(w.key))
		return w.done()
	}
}

func deploymentOwnRS(w *worker) sim.Step[worker] {
	rs, err := w.api.ReplicaSets.Get(nil, rsName(w.key))
	switch {
	case err != nil:
		return func(w *worker) sim.Step[worker] {
			d := w.d
			w.api.ReplicaSets.Create(nil, &ReplicaSet{
				Name:          rsName(d.Name),
				Owner:         d.Name,
				Labels:        maps.Clone(d.Labels),
				Replicas:      d.Replicas,
				Template:      copyTemplate(d.Template),
				SchedulerName: d.SchedulerName,
			})
			return w.done()
		}
	case rs.Replicas != w.d.Replicas:
		rs.Replicas, w.rs = w.d.Replicas, rs
		return func(w *worker) sim.Step[worker] {
			w.api.ReplicaSets.Update(nil, w.rs)
			return w.done()
		}
	}
	return w.done()
}

// RunReplicaSetController starts the ReplicaSet controller: it creates or
// deletes pods to match each ReplicaSet's replica count. It watches pods as
// well as ReplicaSets, so pods deleted out from under it (e.g. evicted from
// a failed node) are replaced.
func RunReplicaSetController(api *APIServer, cfg ControllerConfig) {
	q := newWorkQueue(api.k)
	api.relay(KindReplicaSet, func(ev Event) { q.Add(ev.Name) })
	api.relay(KindPod, func(ev Event) {
		if pod, _ := ev.Object.(*Pod); pod != nil && pod.Owner != "" {
			q.Add(pod.Owner)
		}
	})
	q.serve(api, cfg, reconcileReplicaSet)
}

// reconcileReplicaSet is the ReplicaSet controller's pass over w.key, one API
// request per step.
func reconcileReplicaSet(w *worker) sim.Step[worker] {
	w.rs, _ = w.api.ReplicaSets.Get(nil, w.key) // nil once it is gone: its pods go
	return replicaSetListPods
}

func replicaSetListPods(w *worker) sim.Step[worker] {
	w.pods = w.api.ListPodsByOwner(nil, w.key)
	switch {
	case w.rs == nil: // gone: delete them all
	case len(w.pods) < w.rs.Replicas:
		w.n = w.rs.Replicas - len(w.pods)
		return replicaSetCreatePod
	default:
		w.pods = w.pods[w.rs.Replicas:] // the surplus, if any
	}
	return replicaSetDelete(w)
}

func replicaSetCreatePod(w *worker) sim.Step[worker] {
	rs := w.rs
	w.api.CreatePod(nil, &Pod{
		Owner:         rs.Name,
		Labels:        maps.Clone(rs.Template.Labels),
		Spec:          copyTemplate(rs.Template),
		SchedulerName: rs.SchedulerName,
		Phase:         PodPending,
	})
	if w.n--; w.n > 0 {
		return replicaSetCreatePod
	}
	return w.done()
}

// replicaSetDelete deletes w.pods, one request each: the pods of a
// ReplicaSet that is gone oldest first, surplus pods newest first
// (Kubernetes' default victim preference for scale-down).
func replicaSetDelete(w *worker) sim.Step[worker] {
	if len(w.pods) == 0 {
		return w.done()
	}
	return func(w *worker) sim.Step[worker] {
		if w.rs == nil {
			w.api.Pods.Delete(nil, w.pods[0].Name)
			w.pods = w.pods[1:]
		} else {
			last := len(w.pods) - 1
			w.api.Pods.Delete(nil, w.pods[last].Name)
			w.pods = w.pods[:last]
		}
		return replicaSetDelete(w)
	}
}

// Capacity is a node's schedulable resources.
type Capacity struct {
	CPUMillis   int64
	MemoryBytes int64
}

// DefaultCapacity mirrors a well-equipped edge node (the paper's EGS: 12
// cores / 32 GiB).
func DefaultCapacity() Capacity {
	return Capacity{CPUMillis: 12000, MemoryBytes: 32 << 30}
}

// NodeRef names a schedulable node and its capacity.
type NodeRef struct {
	Name string
	Cap  Capacity
}

// NodeStatus is what a scheduler sees about a node.
type NodeStatus struct {
	Name string
	Pods int // pods currently bound to the node
	// CPUFree / MemFree are the unreserved resources after subtracting
	// the requests of bound pods.
	CPUFree int64
	MemFree int64
}

// podRequests sums the resource requests of a pod's containers.
func podRequests(t PodTemplate) (cpu, mem int64) {
	for _, c := range t.Containers {
		cpu += c.CPUMillis
		mem += c.MemoryBytes
	}
	return cpu, mem
}

// PickNodeFunc selects a node name for a pod (the Local Scheduler decision
// point of §IV-B). Returning "" leaves the pod unscheduled.
type PickNodeFunc func(pod *Pod, nodes []NodeStatus) string

// LeastLoaded is the default node picker: fewest bound pods, ties broken by
// name.
func LeastLoaded(pod *Pod, nodes []NodeStatus) string {
	best := ""
	bestPods := int(^uint(0) >> 1)
	for _, n := range nodes {
		if n.Pods < bestPods || (n.Pods == bestPods && n.Name < best) {
			best, bestPods = n.Name, n.Pods
		}
	}
	return best
}

// SchedulerConfig configures one scheduler instance.
type SchedulerConfig struct {
	// Name is the schedulerName this instance serves. The default
	// scheduler uses "default-scheduler" and also adopts pods with an
	// empty schedulerName.
	Name string
	// CycleDelay is the serial scheduling cycle (filter + score); the
	// scheduler handles one cycle at a time, as kube-scheduler does.
	CycleDelay time.Duration
	// BindingDelay is the pod's total scheduling latency including the
	// asynchronous bind; concurrent pods overlap in the bind phase.
	BindingDelay time.Duration
	// Pick selects the node; nil means LeastLoaded.
	Pick PickNodeFunc
}

// DefaultSchedulerName is the name of the built-in scheduler.
const DefaultSchedulerName = "default-scheduler"

// RunScheduler starts a scheduler instance binding pending pods whose
// schedulerName matches cfg.Name. nodes lists the schedulable nodes with
// their capacities; load and free resources are computed from current pod
// bindings, and nodes without room for the pod's requests are filtered out
// before the Pick function runs. Pods that fit nowhere stay Pending and are
// retried whenever a pod is deleted (capacity may have freed up).
func RunScheduler(api *APIServer, cfg SchedulerConfig, nodes []NodeRef) {
	if cfg.Pick == nil {
		cfg.Pick = LeastLoaded
	}
	if cfg.Name == "" {
		cfg.Name = DefaultSchedulerName
	}
	if cfg.CycleDelay <= 0 {
		cfg.CycleDelay = 30 * time.Millisecond
	}
	s := &scheduler{api: api, cfg: cfg, nodes: nodes, inflight: map[string]bool{}, unschedulable: map[string]bool{},
		events: api.Watch(KindPod)}
	s.Init(api.k, s, api.cfg.RequestLatency)
	s.Park(s.events, schedule)
}

// scheduler is one scheduler instance: a serial loop over its pod watch that
// runs one scheduling cycle at a time and hands each scheduled pod to a
// binding of its own. The loop starts parked on the watch, as a work queue's
// workers do.
type scheduler struct {
	sim.Cont[scheduler]
	api           *APIServer
	cfg           SchedulerConfig
	nodes         []NodeRef
	inflight      map[string]bool
	unschedulable map[string]bool
	events        *sim.Chan[Event] // the pod watch, buffered while a cycle runs
	retry         []string         // parked pods still to retry, by name, ahead of later events
	cycling       string           // the pod whose cycle is running
}

// schedule runs the loop until a scheduling cycle starts or there is nothing
// left to do. A deleted pod may have freed capacity: the parked pods are
// retried by name — each cycle sleeps, so the retry order is the bind order,
// and the binds it overlaps with edit the set.
func schedule(s *scheduler) sim.Step[scheduler] {
	for {
		var name string
		if len(s.retry) > 0 {
			name, s.retry = s.retry[0], s.retry[1:]
		} else if ev, ok := s.events.TryRecv(); ok {
			if ev.Type == Deleted {
				delete(s.unschedulable, ev.Name)
				for name := range s.unschedulable {
					s.retry = append(s.retry, name)
				}
				sort.Strings(s.retry)
				continue
			}
			name = ev.Name
		} else {
			s.Park(s.events, schedule)
			return nil
		}
		pod := s.api.Pods.byName[name]
		if pod == nil || pod.NodeName != "" || pod.Phase != PodPending || s.inflight[name] || !s.mine(pod) {
			continue
		}
		// Serial scheduling cycle on the scheduler loop; the pod's binding
		// starts one zero-delay event after it, where a bind process started.
		s.inflight[name] = true
		s.cycling = name
		s.Sleep(s.cfg.CycleDelay, func(s *scheduler) sim.Step[scheduler] {
			b := &binding{s: s, name: s.cycling}
			b.Init(s.api.k, b, s.api.cfg.RequestLatency)
			b.Sleep(0, bind)
			return schedule(s)
		})
		return nil
	}
}

func (s *scheduler) mine(pod *Pod) bool {
	want := pod.SchedulerName
	if want == "" {
		want = DefaultSchedulerName
	}
	return want == s.cfg.Name
}

// binding binds one pod: BindingDelay after its cycle began it reads the pod,
// lists the nodes' pods, picks a node and writes the binding, one API request
// each. Concurrent pods overlap here.
type binding struct {
	sim.Cont[binding]
	s    *scheduler
	name string
	pod  *Pod
}

func bind(b *binding) sim.Step[binding] {
	if rest := b.s.cfg.BindingDelay - b.s.cfg.CycleDelay; rest > 0 {
		b.Sleep(rest, func(*binding) sim.Step[binding] { return bindRead })
		return nil
	}
	return bindRead
}

func bindRead(b *binding) sim.Step[binding] {
	pod, err := b.s.api.Pods.Get(nil, b.name)
	if err != nil || pod.NodeName != "" {
		return b.end()
	}
	b.pod = pod
	return bindPick // one list request covers every node's pods
}

func bindPick(b *binding) sim.Step[binding] {
	s := b.s
	needCPU, needMem := podRequests(b.pod.Spec)
	status := make([]NodeStatus, 0, len(s.nodes))
	for _, n := range s.nodes {
		if !s.api.nodeSchedulable(n.Name) {
			continue
		}
		st := NodeStatus{Name: n.Name, CPUFree: n.Cap.CPUMillis, MemFree: n.Cap.MemoryBytes}
		for _, other := range s.api.podsByNode[n.Name].view() {
			st.Pods++
			cpu, mem := podRequests(other.Spec)
			st.CPUFree -= cpu
			st.MemFree -= mem
		}
		if st.CPUFree >= needCPU && st.MemFree >= needMem {
			status = append(status, st)
		}
	}
	node := ""
	if len(status) > 0 {
		node = s.cfg.Pick(b.pod, status)
	}
	if node == "" {
		// Nothing fits: keep Pending, retry on capacity changes.
		s.unschedulable[b.name] = true
		return b.end()
	}
	delete(s.unschedulable, b.name)
	b.pod.NodeName = node
	return func(b *binding) sim.Step[binding] {
		b.s.api.Pods.Update(nil, b.pod)
		return b.end()
	}
}

func (b *binding) end() sim.Step[binding] {
	delete(b.s.inflight, b.name)
	return nil
}
