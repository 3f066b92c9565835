package kube

import (
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
// once the active pass finishes (level-based reconciliation).
type workQueue struct {
	k      *sim.Kernel
	ch     *sim.Chan[string]
	queued map[string]bool
	active map[string]bool
	again  map[string]bool
}

func newWorkQueue(k *sim.Kernel) *workQueue {
	return &workQueue{
		k:      k,
		ch:     sim.NewChan[string](k),
		queued: make(map[string]bool),
		active: make(map[string]bool),
		again:  make(map[string]bool),
	}
}

// Add enqueues a key (coalescing duplicates).
func (q *workQueue) Add(key string) {
	if q.active[key] {
		q.again[key] = true
		return
	}
	if q.queued[key] {
		return
	}
	q.queued[key] = true
	q.ch.Send(key)
}

// run starts workers processing keys with process.
func (q *workQueue) run(name string, workers int, process func(p *sim.Proc, key string)) {
	if workers <= 0 {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		q.k.Go(name, func(p *sim.Proc) {
			for {
				key, ok := q.ch.Recv(p)
				if !ok {
					return
				}
				delete(q.queued, key)
				q.active[key] = true
				process(p, key)
				delete(q.active, key)
				if q.again[key] {
					delete(q.again, key)
					q.Add(key)
				}
			}
		})
	}
}

// RunDeploymentController starts the Deployment controller: level-based
// reconciliation ensuring each Deployment owns one ReplicaSet with matching
// replica count.
func RunDeploymentController(api *APIServer, cfg ControllerConfig) {
	q := newWorkQueue(api.Kernel())
	api.subscribeQueued(KindDeployment, func(ev Event) { q.Add(ev.Name) })
	q.run("deployment-controller:worker", cfg.Workers, func(p *sim.Proc, name string) {
		p.Sleep(cfg.ReconcileDelay)
		reconcileDeployment(p, api, name)
	})
}

func rsName(deployment string) string { return deployment + "-rs" }

func reconcileDeployment(p *sim.Proc, api *APIServer, name string) {
	d, err := api.GetDeployment(p, name)
	if err != nil {
		// Deployment gone: cascade-delete the owned ReplicaSet.
		if _, rserr := api.GetReplicaSet(p, rsName(name)); rserr == nil {
			api.DeleteReplicaSet(p, rsName(name))
		}
		return
	}
	rs, err := api.GetReplicaSet(p, rsName(d.Name))
	if err != nil {
		api.CreateReplicaSet(p, &ReplicaSet{
			Name:          rsName(d.Name),
			Owner:         d.Name,
			Labels:        copyLabels(d.Labels),
			Replicas:      d.Replicas,
			Template:      copyTemplate(d.Template),
			SchedulerName: d.SchedulerName,
		})
		return
	}
	if rs.Replicas != d.Replicas {
		rs.Replicas = d.Replicas
		api.UpdateReplicaSet(p, rs)
	}
}

// RunReplicaSetController starts the ReplicaSet controller: it creates or
// deletes pods to match each ReplicaSet's replica count. It watches pods as
// well as ReplicaSets, so pods deleted out from under it (e.g. evicted from
// a failed node) are replaced.
func RunReplicaSetController(api *APIServer, cfg ControllerConfig) {
	q := newWorkQueue(api.Kernel())
	api.subscribeQueued(KindReplicaSet, func(ev Event) { q.Add(ev.Name) })
	api.subscribeQueued(KindPod, func(ev Event) {
		if pod, _ := ev.Object.(*Pod); pod != nil && pod.Owner != "" {
			q.Add(pod.Owner)
		}
	})
	q.run("replicaset-controller:worker", cfg.Workers, func(p *sim.Proc, name string) {
		p.Sleep(cfg.ReconcileDelay)
		reconcileReplicaSet(p, api, name)
	})
}

func reconcileReplicaSet(p *sim.Proc, api *APIServer, name string) {
	rs, err := api.GetReplicaSet(p, name)
	if err != nil {
		// ReplicaSet gone: delete its pods.
		for _, pod := range api.ListPodsByOwner(p, name) {
			api.DeletePod(p, pod.Name)
		}
		return
	}
	pods := api.ListPodsByOwner(p, rs.Name)
	switch {
	case len(pods) < rs.Replicas:
		for i := len(pods); i < rs.Replicas; i++ {
			api.CreatePod(p, &Pod{
				Owner:         rs.Name,
				Labels:        copyLabels(rs.Template.Labels),
				Spec:          copyTemplate(rs.Template),
				SchedulerName: rs.SchedulerName,
				Phase:         PodPending,
			})
		}
	case len(pods) > rs.Replicas:
		// Delete surplus pods, newest first (Kubernetes' default victim
		// preference for scale-down).
		for i := len(pods) - 1; i >= rs.Replicas; i-- {
			api.DeletePod(p, pods[i].Name)
		}
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
	inflight := map[string]bool{}
	unschedulable := map[string]bool{}

	mine := func(pod *Pod) bool {
		want := pod.SchedulerName
		if want == "" {
			want = DefaultSchedulerName
		}
		return want == cfg.Name
	}

	var schedule func(p *sim.Proc, name string)
	schedule = func(p *sim.Proc, name string) {
		pod, err := api.GetPod(nil, name)
		if err != nil || pod.NodeName != "" || pod.Phase != PodPending || inflight[pod.Name] || !mine(pod) {
			return
		}
		inflight[pod.Name] = true
		// Serial scheduling cycle on the scheduler loop.
		p.Sleep(cfg.CycleDelay)
		api.Kernel().Go("scheduler:"+cfg.Name+":bind:"+name, func(bp *sim.Proc) {
			defer delete(inflight, name)
			if rest := cfg.BindingDelay - cfg.CycleDelay; rest > 0 {
				bp.Sleep(rest)
			}
			pod, err := api.GetPod(bp, name)
			if err != nil || pod.NodeName != "" {
				return
			}
			needCPU, needMem := podRequests(pod.Spec)
			status := make([]NodeStatus, 0, len(nodes))
			api.charge(bp) // one list request covers every node's pods
			for _, n := range nodes {
				if !api.nodeSchedulable(n.Name) {
					continue
				}
				st := NodeStatus{Name: n.Name, CPUFree: n.Cap.CPUMillis, MemFree: n.Cap.MemoryBytes}
				for _, other := range api.podsByNode[n.Name].view() {
					st.Pods++
					cpu, mem := podRequests(other.Spec)
					st.CPUFree -= cpu
					st.MemFree -= mem
				}
				if st.CPUFree >= needCPU && st.MemFree >= needMem {
					status = append(status, st)
				}
			}
			if len(status) == 0 {
				// Nothing fits: keep Pending, retry on capacity changes.
				unschedulable[name] = true
				return
			}
			node := cfg.Pick(pod, status)
			if node == "" {
				unschedulable[name] = true
				return
			}
			delete(unschedulable, name)
			pod.NodeName = node
			api.UpdatePod(bp, pod)
		})
	}

	w := api.Watch(KindPod)
	api.Kernel().Go("scheduler:"+cfg.Name, func(p *sim.Proc) {
		for {
			ev, ok := w.Recv(p)
			if !ok {
				return
			}
			if ev.Type == Deleted {
				delete(unschedulable, ev.Name)
				// Capacity may have freed: retry parked pods, by name — each
				// cycle sleeps, so the iteration order is the bind order, and
				// the binds it overlaps with edit the set.
				parked := make([]string, 0, len(unschedulable))
				for name := range unschedulable {
					parked = append(parked, name)
				}
				sort.Strings(parked)
				for _, name := range parked {
					schedule(p, name)
				}
				continue
			}
			schedule(p, ev.Name)
		}
	})
}
