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

// APIServer is the versioned object store with watch support, one Store per
// kind. Objects are stored as immutable snapshots (see the package comment):
// lists and watch events hand out the shared snapshots read-only, Get returns
// private copies.
type APIServer struct {
	k           *sim.Kernel
	cfg         APIConfig
	version     uint64
	Deployments *Store[*Deployment]
	ReplicaSets *Store[*ReplicaSet]
	Pods        *Store[*Pod] // created with a generated name and default phase
	Services    *Store[*Service]
	Nodes       Reader[*Node] // written only by heartbeats and the node monitor
	nodes       *Store[*Node]
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
	a.Deployments = newStore[*Deployment](a, KindDeployment, nil)
	a.ReplicaSets = newStore(a, KindReplicaSet, keyed(a.rsByOwner, func(rs *ReplicaSet) string { return rs.Owner }))
	byOwner := keyed(a.podsByOwner, func(pod *Pod) string { return pod.Owner })
	byNode := keyed(a.podsByNode, func(pod *Pod) string { return pod.NodeName })
	a.Pods = newStore(a, KindPod, func(old, cur *Pod) {
		byOwner(old, cur)
		byNode(old, cur)
		a.reindexPodLabels(old, cur)
	})
	a.Pods.admit = func(pod *Pod) {
		if pod.Name == "" {
			pod.Name = pod.Owner + "-" + a.nameSuffix()
		}
		if pod.Phase == "" {
			pod.Phase = PodPending
		}
	}
	a.Services = newStore(a, KindService, keyed(a.svcBySelector, func(s *Service) labelPair { return selectorKey(s.Selector) }))
	a.nodes = newStore[*Node](a, KindNode, nil)
	a.Nodes = a.nodes
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

// ListReplicaSets returns the ReplicaSets owned by the given Deployment,
// sorted by name, as read-only snapshots (ReplicaSets.List for all of them).
func (a *APIServer) ListReplicaSets(p *sim.Proc, owner string) []*ReplicaSet {
	a.charge(p)
	return a.rsByOwner[owner].view()
}

// CreatePod is Pods.Create returning a private copy of what was stored, whose
// name is generated if pod's was empty; pod itself is not written.
func (a *APIServer) CreatePod(p *sim.Proc, pod *Pod) (*Pod, error) {
	snap, err := a.Pods.insert(p, pod.clone())
	if err != nil {
		return nil, err
	}
	return snap.clone(), nil
}

// ListPods returns the pods matching selector (nil for all), sorted by name,
// as read-only snapshots (Pods.Get for a mutable copy).
func (a *APIServer) ListPods(p *sim.Proc, selector map[string]string) []*Pod {
	a.charge(p)
	return a.podsMatching(selector)
}

// podsMatching serves a selector from the label index: a one-entry selector
// is a bucket as it stands, a longer one filters its smallest bucket.
func (a *APIServer) podsMatching(selector map[string]string) []*Pod {
	if len(selector) == 0 {
		return a.Pods.sorted.view()
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
