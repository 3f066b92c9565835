package kube

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"transparentedge/internal/sim"
)

// API errors.
var (
	ErrNotFound      = errors.New("kube: object not found")
	ErrAlreadyExists = errors.New("kube: object already exists")
)

// labelPair is one (label key, value) entry, the key of the label indexes.
type labelPair struct{ key, value string }

// APIServer is the versioned object store with watch support, one Store per
// kind. Objects are stored as immutable snapshots (see the package comment):
// Get, lists and watch events hand out the shared snapshots read-only.
type APIServer struct {
	k           *sim.Kernel
	t           calibration // the control plane's, read by every component
	version     uint64
	Deployments *Store[*Deployment]
	ReplicaSets *Store[*ReplicaSet]
	Pods        *Store[*Pod] // created with a generated name and default phase
	Services    *Store[*Service]
	// Secondary indexes, maintained on every write by the stores' reindex
	// hooks; every bucket is name-ordered.
	podsByOwner   index[string, *Pod]
	podsByNode    index[string, *Pod] // "" holds the unbound pods
	podsByLabel   index[labelPair, *Pod]
	svcBySelector index[labelPair, *Service] // under selectorKey only
	subs          map[Kind][]func(Event)     // watch subscribers, in subscription order
	freeDelivery  []*delivery                // recycled watch deliveries
	nextSuffix    int
	// podWrites counts the pod writes, each published as one watch event,
	// and departed, per node, the pods that left it: deleted, or bound
	// elsewhere. The kubelet compares them with the events it has heard.
	podWrites int
	departed  map[string]int
}

// NewAPIServer creates an empty API server on kernel k.
func NewAPIServer(k *sim.Kernel) *APIServer {
	a := &APIServer{
		k:             k,
		t:             calibrated,
		podsByOwner:   make(index[string, *Pod]),
		podsByNode:    make(index[string, *Pod]),
		podsByLabel:   make(index[labelPair, *Pod]),
		svcBySelector: make(index[labelPair, *Service]),
		departed:      make(map[string]int),
		subs:          make(map[Kind][]func(Event)),
	}
	a.Deployments = newStore[*Deployment](a, KindDeployment, nil)
	a.ReplicaSets = newStore[*ReplicaSet](a, KindReplicaSet, nil)
	byOwner := keyed(a.podsByOwner, func(pod *Pod) string { return pod.Owner })
	byNode := keyed(a.podsByNode, func(pod *Pod) string { return pod.NodeName })
	a.Pods = newStore(a, KindPod, func(old, cur *Pod) {
		a.podWrites++
		byOwner(old, cur)
		byNode(old, cur)
		if old != nil && old.NodeName != "" && (cur == nil || cur.NodeName != old.NodeName) {
			a.departed[old.NodeName]++
		}
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
// the watch latency after each write, in subscription order among the kind's
// subscribers, and must not block. Event.Object is a shared read-only
// snapshot.
func (a *APIServer) Subscribe(kind Kind, fn func(Event)) {
	a.subs[kind] = append(a.subs[kind], fn)
}

// Watch is Subscribe for a continuation that parks on a channel (a relay, the
// scheduler): events queue on the returned channel.
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

// delivery is one watch event on its way to one subscriber. fire is bound
// once, when the record is first made, and the record is recycled through
// APIServer.freeDelivery, so a publish allocates nothing once the free list
// holds the most deliveries ever in flight.
type delivery struct {
	a    *APIServer
	fn   func(Event)
	ev   Event
	fire func()
}

func (a *APIServer) publish(ev Event) {
	for _, fn := range a.subs[ev.Kind] {
		var d *delivery
		if n := len(a.freeDelivery); n > 0 {
			d = a.freeDelivery[n-1]
			a.freeDelivery = a.freeDelivery[:n-1]
		} else {
			d = &delivery{a: a}
			d.fire = d.deliver
		}
		d.fn, d.ev = fn, ev
		a.k.AfterFree(a.t.watch, d.fire)
	}
}

// deliver returns the record to the free list before it calls the
// subscriber, which may publish (and so reuse the record) in turn.
func (d *delivery) deliver() {
	fn, ev := d.fn, d.ev
	d.fn, d.ev = nil, Event{}
	d.a.freeDelivery = append(d.a.freeDelivery, d)
	fn(ev)
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
	if p != nil && a.t.request > 0 {
		p.Sleep(a.t.request)
	}
}

// CreatePod is Pods.Create returning the stored snapshot (read-only), whose
// name is generated if pod's was empty; pod itself is not written.
func (a *APIServer) CreatePod(p *sim.Proc, pod *Pod) (*Pod, error) {
	return a.Pods.insert(p, pod.clone())
}

// ListPods returns the pods matching selector (nil for all), sorted by name,
// as read-only snapshots.
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

// nodePortTaken reports whether a Service that gives pod a NodePort (one that
// selects it and whose targetPort a container of pod declares) already
// selects a pod bound to node: both would listen on the NodePort, a node
// resource as a host port is to Kubernetes' NodePorts filter.
func (a *APIServer) nodePortTaken(pod *Pod, node string) bool {
	taken := func(key labelPair) bool {
		for _, s := range a.svcBySelector[key].scan() {
			if s.NodePort == 0 || !declaresPort(pod.Spec, s.TargetPort) || !MatchLabels(pod.Labels, s.Selector) {
				continue
			}
			selected := a.podsByNode[node].scan()
			if len(s.Selector) > 0 {
				selected = a.podsByLabel[selectorKey(s.Selector)].scan()
			}
			for _, other := range selected {
				if other.NodeName == node && declaresPort(other.Spec, s.TargetPort) && MatchLabels(other.Labels, s.Selector) {
					return true
				}
			}
		}
		return false
	}
	if taken(labelPair{}) {
		return true
	}
	for k, v := range pod.Labels {
		if key := (labelPair{k, v}); key != (labelPair{}) && taken(key) {
			return true
		}
	}
	return false
}

func declaresPort(t PodTemplate, port int) bool {
	for _, c := range t.Containers {
		if c.ContainerPort == port {
			return true
		}
	}
	return false
}
