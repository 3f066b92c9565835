package kube

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// Config assembles the control-plane latency model of one cluster.
type Config struct {
	API           APIConfig
	Controller    ControllerConfig
	Scheduler     SchedulerConfig // the default scheduler
	LocalSched    *SchedulerConfig
	Kubelet       KubeletConfig
	NodeLifecycle NodeLifecycleConfig
	NodePortStart int
	// BindPollInterval is how often ScaleUp re-checks for a bound pod.
	BindPollInterval time.Duration
}

// DefaultConfig mirrors a single-node cluster on the paper's EGS.
func DefaultConfig() Config {
	return Config{
		API:              DefaultAPIConfig(),
		Controller:       DefaultControllerConfig(),
		Scheduler:        SchedulerConfig{Name: DefaultSchedulerName, BindingDelay: 350 * time.Millisecond},
		Kubelet:          DefaultKubeletConfig(),
		NodeLifecycle:    DefaultNodeLifecycleConfig(),
		NodePortStart:    30000,
		BindPollInterval: 50 * time.Millisecond,
	}
}

// Cluster is a mini-Kubernetes cluster implementing cluster.Cluster.
type Cluster struct {
	name     string
	api      *APIServer
	cfg      Config
	nodes    []*node
	started  bool
	services map[string]*spec.Annotated
	nextPort int
	// faults is the cluster's fault injector; nil (the default) injects
	// nothing at zero cost.
	faults *faults.Injector
	// ops are the per-operation obs counters (zero value = disabled).
	ops obs.ClusterOps
}

// SetFaults attaches a fault injector (nil disables injection). Each fig. 4
// phase consults it at entry; CrashAfterStart crashes the scheduled pod's
// containers right after the kubelet starts them, so the pod looks Running
// but its NodePort never opens.
func (c *Cluster) SetFaults(in *faults.Injector) { c.faults = in }

// SetObs registers the cluster's cluster_ops_total counters (nil disables).
func (c *Cluster) SetObs(reg *obs.Registry) { c.ops = obs.NewClusterOps(reg, c.name) }

type node struct {
	name    string
	rt      *container.Runtime
	beh     cluster.BehaviorSource
	cap     Capacity
	kubelet *Kubelet
}

// New creates a cluster (call AddNode, then Start).
func New(name string, k *sim.Kernel, cfg Config) *Cluster {
	return &Cluster{
		name:     name,
		api:      NewAPIServer(k, cfg.API),
		cfg:      cfg,
		services: make(map[string]*spec.Annotated),
		nextPort: cfg.NodePortStart,
	}
}

// API exposes the API server (tests, custom controllers).
func (c *Cluster) API() *APIServer { return c.api }

// AddNode registers a worker node with its schedulable capacity
// (DefaultCapacity is the EGS profile). Must be called before Start.
func (c *Cluster) AddNode(nodeName string, rt *container.Runtime, behaviors cluster.BehaviorSource, cap Capacity) {
	if c.started {
		panic("kube: AddNode after Start")
	}
	c.nodes = append(c.nodes, &node{name: nodeName, rt: rt, beh: behaviors, cap: cap})
}

// Start launches the control plane: controllers, scheduler(s), kubelets.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	RunDeploymentController(c.api, c.cfg.Controller)
	RunReplicaSetController(c.api, c.cfg.Controller)
	refs := make([]NodeRef, len(c.nodes))
	for i, n := range c.nodes {
		refs[i] = NodeRef{Name: n.name, Cap: n.cap}
	}
	RunScheduler(c.api, c.cfg.Scheduler, refs)
	if c.cfg.LocalSched != nil {
		RunScheduler(c.api, *c.cfg.LocalSched, refs)
	}
	for _, n := range c.nodes {
		n.kubelet = RunKubelet(c.api, n.name, n.rt, n.beh, c.cfg.Kubelet)
		n.kubelet.startHeartbeats(c.cfg.NodeLifecycle.HeartbeatPeriod)
	}
	RunNodeLifecycleController(c.api, c.cfg.NodeLifecycle)
}

// Kubelet returns the kubelet of a node (nil if unknown or not started).
func (c *Cluster) Kubelet(nodeName string) *Kubelet {
	if n := c.nodeByName(nodeName); n != nil {
		return n.kubelet
	}
	return nil
}

// Name implements cluster.Cluster.
func (c *Cluster) Name() string { return c.name }

// Addr implements cluster.Cluster (first node's address; single-node
// clusters as in the paper's testbed have exactly one).
func (c *Cluster) Addr() simnet.Addr {
	if len(c.nodes) == 0 {
		return ""
	}
	return c.nodes[0].rt.Host().IP()
}

func (c *Cluster) nodeByName(name string) *node {
	for _, n := range c.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// hasImages reports whether the node's runtime holds every image of a.
func (n *node) hasImages(a *spec.Annotated) bool {
	for _, cs := range a.Containers {
		if !n.rt.HasImage(cs.Image) {
			return false
		}
	}
	return true
}

// HasImages implements cluster.Cluster: every node must have every image.
func (c *Cluster) HasImages(a *spec.Annotated) bool {
	for _, n := range c.nodes {
		if !n.hasImages(a) {
			return false
		}
	}
	return true
}

// Pull implements cluster.Cluster: the nodes missing an image pull
// concurrently, one process each; a node that has them all costs nothing.
func (c *Cluster) Pull(p *sim.Proc, a *spec.Annotated) error {
	c.ops.Pull.Inc()
	if err := c.faults.PullError(p.Now()); err != nil {
		return err
	}
	k := c.api.k
	wg := sim.NewWaitGroup(k)
	var firstErr error
	for _, n := range c.nodes {
		n := n
		if n.hasImages(a) {
			continue
		}
		wg.Add(1)
		k.Go("pull:"+c.name+":"+n.name, func(np *sim.Proc) {
			defer wg.Done()
			for _, cs := range a.Containers {
				if err := n.rt.PullImage(np, cs.Image); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("kube: pull %s on %s: %w", cs.Image, n.name, err)
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// Exists implements cluster.Cluster.
func (c *Cluster) Exists(name string) bool {
	_, ok := c.services[name]
	return ok
}

// Running implements cluster.Cluster (desired replicas > 0).
func (c *Cluster) Running(name string) bool {
	d, ok := c.api.Deployments.byName[name]
	return ok && d.Replicas > 0
}

// Create implements cluster.Cluster: apply the annotated Deployment (zero
// replicas) and its Service with an allocated NodePort.
func (c *Cluster) Create(p *sim.Proc, a *spec.Annotated) error {
	if _, dup := c.services[a.UniqueName]; dup {
		return fmt.Errorf("%w: %s", cluster.ErrAlreadyExists, a.UniqueName)
	}
	c.ops.Create.Inc()
	if err := c.faults.CreateError(p.Now()); err != nil {
		return err
	}
	labels := map[string]string{
		"app":                 a.UniqueName,
		spec.EdgeServiceLabel: a.UniqueName,
	}
	d := &Deployment{
		Name:     a.UniqueName,
		Labels:   labels,
		Replicas: 0,
		Template: PodTemplate{
			Labels:     labels,
			Containers: append([]spec.ContainerSpec(nil), a.Containers...),
		},
		SchedulerName: schedulerNameOf(a),
	}
	if err := c.api.Deployments.Create(p, d); err != nil {
		return err
	}
	nodePort := c.nextPort
	c.nextPort++
	svc := &Service{
		Name:       a.UniqueName,
		Labels:     labels,
		Selector:   map[string]string{"app": a.UniqueName},
		Port:       a.Reg.Port,
		TargetPort: a.TargetPort,
		NodePort:   nodePort,
	}
	if err := c.api.Services.Create(p, svc); err != nil {
		return err
	}
	c.services[a.UniqueName] = a
	return nil
}

func schedulerNameOf(a *spec.Annotated) string {
	specMap, _ := a.Deployment["spec"].(map[string]any)
	tmpl, _ := specMap["template"].(map[string]any)
	podSpec, _ := tmpl["spec"].(map[string]any)
	s, _ := podSpec["schedulerName"].(string)
	return s
}

// ScaleUp implements cluster.Cluster: raise replicas to one and block until
// the new pod is bound to a node so the endpoint (node address + NodePort)
// is known, or fail with ErrBindTimeout. The pod is usually still starting
// when ScaleUp returns — the SDN controller probes the port for readiness, as
// in the paper.
func (c *Cluster) ScaleUp(p *sim.Proc, name string) (cluster.Instance, error) {
	if _, ok := c.services[name]; !ok {
		return cluster.Instance{}, fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	c.ops.ScaleUp.Inc()
	if err := c.faults.ScaleUpError(p.Now()); err != nil {
		return cluster.Instance{}, err
	}
	d, err := c.api.Deployments.Get(p, name)
	if err != nil {
		return cluster.Instance{}, err
	}
	if d.Replicas < 1 {
		d.Replicas = 1
		if err := c.api.Deployments.Update(p, d); err != nil {
			return cluster.Instance{}, err
		}
	}
	svc, err := c.api.Services.Get(p, name)
	if err != nil {
		return cluster.Instance{}, err
	}
	w := &bindWait{
		c:        c,
		name:     name,
		port:     svc.NodePort,
		selector: map[string]string{"app": name},
		deadline: p.Now() + bindMaxWait,
		done:     sim.NewPromise[cluster.Instance](c.api.k),
	}
	w.Init(c.api.k, w, c.api.cfg.RequestLatency)
	w.Charge(bindWaitRead)
	return w.done.Await(p)
}

// ErrBindTimeout is returned (wrapped) by ScaleUp when no pod of the service
// was bound to a node within bindMaxWait: the pod fits nowhere, or every
// node is NotReady.
var ErrBindTimeout = errors.New("kube: no pod was bound to a node")

// bindMaxWait bounds ScaleUp's wait for a bound pod, so a pod parked in the
// scheduler's unschedulable set becomes a deployment error (retried, then
// answered from the next cluster or the cloud) instead of a deployment that
// never returns. It equals core.DefaultProbeMaxWait, the bound on the wait
// that follows this one.
const bindMaxWait = 5 * time.Minute

// bindWait is ScaleUp's wait for a bound pod as a continuation: pay the API
// request latency of a pod list, read the service's pods, and if none is bound
// pause BindPollInterval and list again. The bound is checked only after a list
// that found nothing, as the controller's readiness probe checks its own.
type bindWait struct {
	sim.Cont[bindWait]
	c        *Cluster
	name     string
	port     int
	selector map[string]string
	deadline sim.Time
	done     *sim.Promise[cluster.Instance]
}

func bindWaitRead(w *bindWait) sim.Step[bindWait] {
	c := w.c
	for _, pod := range c.api.podsMatching(w.selector) {
		if pod.NodeName == "" {
			continue
		}
		n := c.nodeByName(pod.NodeName)
		if n == nil {
			continue
		}
		if c.faults.CrashAfterStart() {
			c.crashPod(pod.Name, n, w.name)
		}
		w.done.Resolve(cluster.Instance{
			Service: w.name,
			Cluster: c.name,
			Addr:    n.rt.Host().IP(),
			Port:    w.port,
		})
		return nil
	}
	if w.Now() >= w.deadline {
		w.done.Fail(fmt.Errorf("%w: %s on %s after %v", ErrBindTimeout, w.name, c.name, bindMaxWait))
		return nil
	}
	w.Sleep(c.cfg.BindPollInterval, func(*bindWait) sim.Step[bindWait] { return bindWaitRead })
	return nil
}

// crashPod models a pod whose processes die right after the kubelet starts
// them: a bounded watcher polls every 100 ms for the pod's containers to come
// up, kills them once, and stops. The pod object stays Running — the kubelet
// does not watch process health here — so only the controller's port probing
// notices the crash; a retry's ScaleDown deletes the pod and schedules a fresh
// one. The first look is one zero-delay event from now, where Kernel.Go
// started the watcher as a process.
func (c *Cluster) crashPod(podName string, n *node, svcName string) {
	w := &crashWatch{n: n, pod: podName, svc: svcName, deadline: c.api.k.Now() + 30*time.Second}
	w.Init(c.api.k, w, 0)
	w.Sleep(0, crashPoll)
}

type crashWatch struct {
	sim.Cont[crashWatch]
	n        *node
	pod, svc string
	deadline sim.Time
}

func crashPoll(w *crashWatch) sim.Step[crashWatch] {
	if w.Now() >= w.deadline {
		return nil
	}
	killed := false
	for _, ctr := range w.n.rt.List(map[string]string{"app": w.svc}) {
		if strings.HasPrefix(ctr.Name(), w.pod+".") && ctr.Kill() == nil {
			killed = true
		}
	}
	if !killed {
		w.Sleep(100*time.Millisecond, crashPoll)
	}
	return nil
}

// ScaleDown implements cluster.Cluster.
func (c *Cluster) ScaleDown(p *sim.Proc, name string) error {
	if _, ok := c.services[name]; !ok {
		return fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	c.ops.ScaleDown.Inc()
	if err := c.faults.ScaleDownError(p.Now()); err != nil {
		return err
	}
	return c.SetReplicas(p, name, 0)
}

// Remove implements cluster.Cluster: delete the Deployment (cascading to
// ReplicaSet and Pods) and the Service.
func (c *Cluster) Remove(p *sim.Proc, name string) error {
	if _, ok := c.services[name]; !ok {
		return fmt.Errorf("%w: %s", cluster.ErrUnknownService, name)
	}
	if err := c.api.Deployments.Delete(p, name); err != nil {
		return err
	}
	if err := c.api.Services.Delete(p, name); err != nil {
		return err
	}
	delete(c.services, name)
	return nil
}

// Endpoint implements cluster.Cluster: the first running (containers
// started) pod of the service by name, exposed on its node at the service
// NodePort.
func (c *Cluster) Endpoint(name string) (cluster.Instance, bool) {
	for inst := range c.endpoints(name) {
		return inst, true
	}
	return cluster.Instance{}, false
}

// endpoints yields the instance of each running pod of the service, in
// pod-name order.
func (c *Cluster) endpoints(name string) iter.Seq[cluster.Instance] {
	return func(yield func(cluster.Instance) bool) {
		svc, ok := c.api.Services.byName[name]
		if !ok {
			return
		}
		for _, pod := range c.api.podsMatching(svc.Selector) {
			if pod.Phase != PodRunning {
				continue
			}
			n := c.nodeByName(pod.NodeName)
			if n == nil {
				continue
			}
			inst := cluster.Instance{
				Service: name,
				Cluster: c.name,
				Addr:    n.rt.Host().IP(),
				Port:    svc.NodePort,
			}
			if !yield(inst) {
				return
			}
		}
	}
}

// Services implements cluster.Cluster.
func (c *Cluster) Services() []string {
	return slices.Sorted(maps.Keys(c.services))
}

// SetReplicas sets the Deployment's desired replica count directly (beyond
// the on-demand 0->1 scale-up).
func (c *Cluster) SetReplicas(p *sim.Proc, name string, replicas int) error {
	if _, ok := c.services[name]; !ok {
		return fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	if replicas < 0 {
		return fmt.Errorf("kube: negative replicas %d", replicas)
	}
	d, err := c.api.Deployments.Get(p, name)
	if err != nil {
		return err
	}
	if d.Replicas == replicas {
		return nil
	}
	d.Replicas = replicas
	return c.api.Deployments.Update(p, d)
}

// Endpoints implements cluster.MultiEndpoint: every running pod of the
// service, exposed on its node at the service NodePort.
func (c *Cluster) Endpoints(name string) []cluster.Instance {
	out := slices.Collect(c.endpoints(name))
	sort.SliceStable(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
