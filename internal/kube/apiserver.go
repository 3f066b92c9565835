package kube

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"transparentedge/internal/sim"
)

// API errors.
var (
	ErrNotFound      = errors.New("kube: object not found")
	ErrAlreadyExists = errors.New("kube: object already exists")
)

// APIConfig models API-server-side latencies.
type APIConfig struct {
	// RequestLatency is charged on every synchronous API operation.
	RequestLatency time.Duration
	// WatchLatency is the delay before a watch event reaches a watcher.
	WatchLatency time.Duration
}

// DefaultAPIConfig reflects a lightly loaded single-node control plane.
func DefaultAPIConfig() APIConfig {
	return APIConfig{
		RequestLatency: 15 * time.Millisecond,
		WatchLatency:   30 * time.Millisecond,
	}
}

// labelPair is one (label key, value) entry, the key of the label indexes.
type labelPair struct{ key, value string }

// APIServer is the versioned object store with watch support. Objects are
// stored as immutable snapshots (see the package comment): List* methods and
// watch events hand out the shared snapshots read-only, Get* methods return
// private copies.
type APIServer struct {
	k           *sim.Kernel
	cfg         APIConfig
	version     uint64
	deployments *store[*Deployment]
	replicaSets *store[*ReplicaSet]
	pods        *store[*Pod]
	services    *store[*Service]
	nodes       *store[*Node]
	// Secondary indexes, maintained on every write by the stores' reindex
	// hooks; every bucket is name-ordered.
	rsByOwner     index[string, *ReplicaSet]
	podsByOwner   index[string, *Pod]
	podsByNode    index[string, *Pod] // "" holds the unbound pods
	podsByLabel   index[labelPair, *Pod]
	svcBySelector index[labelPair, *Service] // under selectorKey only
	subs          map[Kind][]func(Event)     // watch subscribers, in subscription order
	nextSuffix    int
}

// NewAPIServer creates an empty API server on kernel k.
func NewAPIServer(k *sim.Kernel, cfg APIConfig) *APIServer {
	a := &APIServer{
		k:             k,
		cfg:           cfg,
		rsByOwner:     make(index[string, *ReplicaSet]),
		podsByOwner:   make(index[string, *Pod]),
		podsByNode:    make(index[string, *Pod]),
		podsByLabel:   make(index[labelPair, *Pod]),
		svcBySelector: make(index[labelPair, *Service]),
		subs:          make(map[Kind][]func(Event)),
	}
	a.deployments = newStore[*Deployment](a, KindDeployment, nil)
	a.replicaSets = newStore(a, KindReplicaSet, keyed(a.rsByOwner, func(rs *ReplicaSet) string { return rs.Owner }))
	byOwner := keyed(a.podsByOwner, func(pod *Pod) string { return pod.Owner })
	byNode := keyed(a.podsByNode, func(pod *Pod) string { return pod.NodeName })
	a.pods = newStore(a, KindPod, func(old, cur *Pod) {
		byOwner(old, cur)
		byNode(old, cur)
		a.reindexPodLabels(old, cur)
	})
	a.services = newStore(a, KindService, keyed(a.svcBySelector, func(s *Service) labelPair { return selectorKey(s.Selector) }))
	a.nodes = newStore[*Node](a, KindNode, nil)
	return a
}

// reindexPodLabels files cur under each of its labels and unfiles old from
// the labels cur no longer carries.
func (a *APIServer) reindexPodLabels(old, cur *Pod) {
	if old != nil {
		for k, v := range old.Labels {
			if cur == nil || !hasLabel(cur.Labels, k, v) {
				a.podsByLabel.remove(labelPair{k, v}, old.Name)
			}
		}
	}
	if cur != nil {
		for k, v := range cur.Labels {
			a.podsByLabel.put(labelPair{k, v}, cur)
		}
	}
}

// selectorKey is the one pair a Service is indexed under: the entry with the
// smallest key, or the zero pair for an empty selector (which selects every
// pod). A pod is selected only by Services filed under one of its own labels
// or under the zero pair.
func selectorKey(selector map[string]string) labelPair {
	var least labelPair
	first := true
	for k, v := range selector {
		if first || k < least.key {
			least, first = labelPair{k, v}, false
		}
	}
	return least
}

// Kernel returns the kernel the API server runs on.
func (a *APIServer) Kernel() *sim.Kernel { return a.k }

// Subscribe registers fn for the events of kind. fn runs as a kernel event
// WatchLatency after each write, in subscription order among the kind's
// subscribers, and must not block. Event.Object is a shared read-only
// snapshot.
func (a *APIServer) Subscribe(kind Kind, fn func(Event)) {
	a.subs[kind] = append(a.subs[kind], fn)
}

// Watch is Subscribe for a consumer that parks on a channel, a process (the
// kubelet) or a continuation (a relay, the scheduler): events queue on the
// returned channel, which is never closed.
func (a *APIServer) Watch(kind Kind) *sim.Chan[Event] {
	ch := sim.NewChan[Event](a.k)
	a.Subscribe(kind, ch.Send)
	return ch
}

// relay feeds a controller's work queue from a watch: fn gets the events of an
// instant together, one zero-delay kernel event after the first is delivered —
// after everything already scheduled for that instant, which is where a
// process blocked on the watch channel would run. The position matters
// because the work queues back up under deployment bursts (a dozen keys deep
// on the 800-service hybrid): whether an Add finds its key active, queued or
// neither depends on its order among the workers waking in the same instant,
// and with it how many reconcile passes the burst costs.
type relay struct {
	sim.Cont[relay]
	in *sim.Chan[Event]
	fn func(Event)
}

func (a *APIServer) relay(kind Kind, fn func(Event)) {
	r := &relay{in: a.Watch(kind), fn: fn}
	r.Init(a.k, r, 0)
	r.Park(r.in, drain)
}

func drain(r *relay) sim.Step[relay] {
	for ev, ok := r.in.TryRecv(); ok; ev, ok = r.in.TryRecv() {
		r.fn(ev)
	}
	r.Park(r.in, drain)
	return nil
}

func (a *APIServer) publish(ev Event) {
	for _, fn := range a.subs[ev.Kind] {
		fn := fn
		a.k.AfterFree(a.cfg.WatchLatency, func() { fn(ev) })
	}
}

func (a *APIServer) bump() uint64 {
	a.version++
	return a.version
}

// nameSuffix returns a unique suffix for generated object names (pods),
// mirroring Kubernetes' random pod name suffixes deterministically.
func (a *APIServer) nameSuffix() string {
	a.nextSuffix++
	return fmt.Sprintf("%05d", a.nextSuffix)
}

func (a *APIServer) charge(p *sim.Proc) {
	if p != nil && a.cfg.RequestLatency > 0 {
		p.Sleep(a.cfg.RequestLatency)
	}
}

// --- Deployments ---

// CreateDeployment stores a copy of d as a new Deployment.
func (a *APIServer) CreateDeployment(p *sim.Proc, d *Deployment) error {
	return a.deployments.create(p, d)
}

// GetDeployment returns a private copy of the named Deployment.
func (a *APIServer) GetDeployment(p *sim.Proc, name string) (*Deployment, error) {
	return a.deployments.get(p, name)
}

// UpdateDeployment replaces the named Deployment with a copy of d.
func (a *APIServer) UpdateDeployment(p *sim.Proc, d *Deployment) error {
	return a.deployments.update(p, d)
}

// DeleteDeployment removes the named Deployment.
func (a *APIServer) DeleteDeployment(p *sim.Proc, name string) error {
	return a.deployments.delete(p, name)
}

// ListDeployments returns all Deployments, sorted by name, as read-only
// snapshots (GetDeployment for a mutable copy).
func (a *APIServer) ListDeployments(p *sim.Proc) []*Deployment { return a.deployments.list(p) }

// --- ReplicaSets ---

// CreateReplicaSet stores a copy of rs as a new ReplicaSet.
func (a *APIServer) CreateReplicaSet(p *sim.Proc, rs *ReplicaSet) error {
	return a.replicaSets.create(p, rs)
}

// GetReplicaSet returns a private copy of the named ReplicaSet.
func (a *APIServer) GetReplicaSet(p *sim.Proc, name string) (*ReplicaSet, error) {
	return a.replicaSets.get(p, name)
}

// UpdateReplicaSet replaces the named ReplicaSet with a copy of rs.
func (a *APIServer) UpdateReplicaSet(p *sim.Proc, rs *ReplicaSet) error {
	return a.replicaSets.update(p, rs)
}

// DeleteReplicaSet removes the named ReplicaSet.
func (a *APIServer) DeleteReplicaSet(p *sim.Proc, name string) error {
	return a.replicaSets.delete(p, name)
}

// ListReplicaSets returns the ReplicaSets owned by owner ("" for all),
// sorted by name, as read-only snapshots (GetReplicaSet for a mutable copy).
func (a *APIServer) ListReplicaSets(p *sim.Proc, owner string) []*ReplicaSet {
	if owner == "" {
		return a.replicaSets.list(p)
	}
	a.charge(p)
	return a.rsByOwner[owner].view()
}

// --- Pods ---

// CreatePod stores a copy of pod as a new Pod and returns a private copy of
// what was stored; an empty name gets a generated suffix.
func (a *APIServer) CreatePod(p *sim.Proc, pod *Pod) (*Pod, error) {
	a.charge(p)
	if pod.Name == "" {
		pod.Name = pod.Owner + "-" + a.nameSuffix()
	}
	if _, dup := a.pods.byName[pod.Name]; dup {
		return nil, a.pods.errorf(ErrAlreadyExists, pod.Name)
	}
	cp := pod.clone()
	if cp.Phase == "" {
		cp.Phase = PodPending
	}
	a.pods.put(cp, Added)
	return cp.clone(), nil
}

// GetPod returns a private copy of the named Pod.
func (a *APIServer) GetPod(p *sim.Proc, name string) (*Pod, error) { return a.pods.get(p, name) }

// UpdatePod replaces the named Pod with a copy of pod.
func (a *APIServer) UpdatePod(p *sim.Proc, pod *Pod) error { return a.pods.update(p, pod) }

// DeletePod removes the named Pod.
func (a *APIServer) DeletePod(p *sim.Proc, name string) error { return a.pods.delete(p, name) }

// ListPods returns the pods matching selector (nil for all), sorted by name,
// as read-only snapshots (GetPod for a mutable copy).
func (a *APIServer) ListPods(p *sim.Proc, selector map[string]string) []*Pod {
	a.charge(p)
	return a.podsMatching(selector)
}

// podsMatching serves a selector from the label index: a one-entry selector
// is a bucket as it stands, a longer one filters its smallest bucket.
func (a *APIServer) podsMatching(selector map[string]string) []*Pod {
	if len(selector) == 0 {
		return a.pods.sorted.view()
	}
	var smallest *nameList[*Pod]
	for k, v := range selector {
		l := a.podsByLabel[labelPair{k, v}]
		if l == nil {
			return nil
		}
		if smallest == nil || len(l.items) < len(smallest.items) {
			smallest = l
		}
	}
	if len(selector) == 1 {
		return smallest.view()
	}
	var out []*Pod
	for _, pod := range smallest.items {
		if MatchLabels(pod.Labels, selector) {
			out = append(out, pod)
		}
	}
	return out
}

// ListPodsByOwner returns the pods owned by the given ReplicaSet, sorted by
// name, as read-only snapshots.
func (a *APIServer) ListPodsByOwner(p *sim.Proc, owner string) []*Pod {
	a.charge(p)
	return a.podsByOwner[owner].view()
}

// ListPodsByNode returns the pods bound to the given node ("" for the
// unbound ones), sorted by name, as read-only snapshots.
func (a *APIServer) ListPodsByNode(p *sim.Proc, node string) []*Pod {
	a.charge(p)
	return a.podsByNode[node].view()
}

// --- Services ---

// CreateService stores a copy of s as a new Service.
func (a *APIServer) CreateService(p *sim.Proc, s *Service) error { return a.services.create(p, s) }

// GetService returns a private copy of the named Service.
func (a *APIServer) GetService(p *sim.Proc, name string) (*Service, error) {
	return a.services.get(p, name)
}

// DeleteService removes the named Service.
func (a *APIServer) DeleteService(p *sim.Proc, name string) error { return a.services.delete(p, name) }

// ListServices returns all Services, sorted by name, as read-only snapshots
// (GetService for a mutable copy).
func (a *APIServer) ListServices(p *sim.Proc) []*Service { return a.services.list(p) }

// servicesSelecting returns the Services whose selector matches labels,
// sorted by name.
func (a *APIServer) servicesSelecting(labels map[string]string) []*Service {
	var out []*Service
	collect := func(key labelPair) {
		if l := a.svcBySelector[key]; l != nil {
			for _, s := range l.items {
				if MatchLabels(labels, s.Selector) {
					out = append(out, s)
				}
			}
		}
	}
	collect(labelPair{})
	for k, v := range labels {
		if key := (labelPair{k, v}); key != (labelPair{}) { // already collected
			collect(key)
		}
	}
	slices.SortFunc(out, func(x, y *Service) int { return strings.Compare(x.Name, y.Name) })
	return out
}

// NodePortFor returns the NodePort of the first Service by name that selects
// pod and whose targetPort matches containerPort (0 if none).
func (a *APIServer) NodePortFor(pod *Pod, containerPort int) int {
	for _, s := range a.servicesSelecting(pod.Labels) {
		if s.TargetPort == containerPort {
			return s.NodePort
		}
	}
	return 0
}
