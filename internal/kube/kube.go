package kube

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/spec"
)

// The control plane's calibration: a lightly loaded single-node cluster on
// the paper's EGS (fig. 8), with Kubernetes' own defaults for the controller
// workers.
const (
	// requestLatency is what each synchronous API call costs its caller: a
	// phase sleeps it before the call, a controller charges it in its steps.
	requestLatency = 15 * time.Millisecond
	// watchLatency is the delay before a watch event reaches a watcher.
	watchLatency = 30 * time.Millisecond
	// reconcileDelay is charged per controller pass (informer cache reads,
	// work item processing).
	reconcileDelay = 60 * time.Millisecond
	// controllerWorkers is the parallel worker count per controller
	// (Kubernetes' concurrent syncs): bursts of deployments are absorbed by
	// parallel workers, a single deployment still pays the full chain.
	controllerWorkers = 5
	// cycleDelay is a scheduler's serial scheduling cycle (filter + score):
	// it handles one cycle at a time, as kube-scheduler does.
	cycleDelay = 30 * time.Millisecond
	// bindingDelay is the default scheduler's total scheduling latency,
	// including the asynchronous bind.
	bindingDelay = 400 * time.Millisecond
	// syncPeriod is the kubelet's periodic reconcile (the backstop for
	// missed watch events, which also quantizes its latency).
	syncPeriod = time.Second
	// processDelay is the kubelet's per-pod-sync overhead (PLEG, cgroup and
	// volume bookkeeping).
	processDelay = 120 * time.Millisecond
	// sandboxDelay is pod sandbox setup: pause container plus CNI network
	// namespace wiring, the dominant per-pod cost (cf. Mohan et al.).
	sandboxDelay = 1350 * time.Millisecond
	// nodeCPUMillis and nodeMemoryBytes are the node's schedulable
	// resources: the EGS's 12 cores and 32 GiB.
	nodeCPUMillis   = 12000
	nodeMemoryBytes = 32 << 30
	// nodePortStart is the first NodePort a Service gets.
	nodePortStart = 30000
	// bindPollInterval is how often ScaleUp re-checks for a bound pod.
	bindPollInterval = 50 * time.Millisecond
)

// calibration is one control plane's copy of the calibration, held by its
// API server and read by every component. Programs run it as calibrated; the
// package's tests sweep it.
type calibration struct {
	request, watch         time.Duration
	reconcile              time.Duration
	workers                int
	cycle, binding         time.Duration
	sync, process, sandbox time.Duration
	nodeCPU, nodeMem       int64
	bindPoll               time.Duration
}

var calibrated = calibration{
	request: requestLatency, watch: watchLatency,
	reconcile: reconcileDelay, workers: controllerWorkers,
	cycle: cycleDelay, binding: bindingDelay,
	sync: syncPeriod, process: processDelay, sandbox: sandboxDelay,
	nodeCPU: nodeCPUMillis, nodeMem: nodeMemoryBytes,
	bindPoll: bindPollInterval,
}

// Config is what a program chooses about a cluster: a Local Scheduler
// (§IV-B) to run beside the default one, or nil for none.
type Config struct {
	LocalSched *SchedulerConfig
}

// Cluster is a mini-Kubernetes cluster implementing cluster.Cluster. It has
// one node, as the paper's EGS runs it (fig. 8).
type Cluster struct {
	name     string
	api      *APIServer
	cfg      Config
	node     node
	started  bool
	services map[string]*spec.Annotated
	nextPort int
	// faults is the cluster's fault injector; nil (the default) injects
	// nothing at zero cost.
	faults *faults.Injector
	// ops counts the phase operations asked for.
	ops cluster.Ops
}

// SetFaults attaches a fault injector (nil disables injection). Pull and
// ScaleUp consult it at entry; CrashAfterStart crashes the scheduled pod's
// containers right after the kubelet starts them, so the pod looks Running
// but its NodePort never opens.
func (c *Cluster) SetFaults(in *faults.Injector) { c.faults = in }

// SetObs registers the cluster's cluster_ops_total series (nil registers nothing).
func (c *Cluster) SetObs(reg *obs.Registry) { c.ops.Register(reg, c.name) }

// node is the cluster's worker node: its kubelet drives rt, and its
// schedulable resources are the calibration's.
type node struct {
	name string
	rt   *container.Runtime
	beh  cluster.BehaviorSource
}

// New creates a cluster whose one node, nodeName, runs its pods on rt with
// the given behaviours (call Start to run it).
func New(name string, k *sim.Kernel, cfg Config, nodeName string, rt *container.Runtime, behaviors cluster.BehaviorSource) *Cluster {
	return &Cluster{
		name:     name,
		api:      NewAPIServer(k),
		cfg:      cfg,
		node:     node{name: nodeName, rt: rt, beh: behaviors},
		services: make(map[string]*spec.Annotated),
		nextPort: nodePortStart,
	}
}

// API exposes the API server (tests, custom controllers).
func (c *Cluster) API() *APIServer { return c.api }

// Start launches the control plane: controllers, scheduler(s), kubelet.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	RunDeploymentController(c.api)
	RunReplicaSetController(c.api)
	runScheduler(c.api, SchedulerConfig{Name: DefaultSchedulerName, BindingDelay: c.api.t.binding}, c.node.name)
	if c.cfg.LocalSched != nil {
		runScheduler(c.api, *c.cfg.LocalSched, c.node.name)
	}
	RunKubelet(c.api, c.node.name, c.node.rt, c.node.beh)
}

// Name implements cluster.Cluster.
func (c *Cluster) Name() string { return c.name }

// HasImages implements cluster.Cluster: the node's runtime holds every image
// of a.
func (c *Cluster) HasImages(a *spec.Annotated) bool {
	for _, cs := range a.Containers {
		if !c.node.rt.HasImage(cs.Image) {
			return false
		}
	}
	return true
}

// Pull implements cluster.Cluster: a node missing an image pulls every image
// of a in the caller's process and returns the first error; a node that has
// them all costs nothing.
func (c *Cluster) Pull(p *sim.Proc, a *spec.Annotated) error {
	c.ops.Pull++
	if err := c.faults.PullError(); err != nil {
		return err
	}
	if c.HasImages(a) {
		return nil
	}
	var firstErr error
	for _, cs := range a.Containers {
		if err := c.node.rt.PullImage(p, cs.Image); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("kube: pull %s on %s: %w", cs.Image, c.node.name, err)
		}
	}
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
	c.ops.Create++
	d := &Deployment{
		Name:     a.UniqueName,
		Replicas: 0,
		Template: PodTemplate{
			Labels: map[string]string{
				"app":                 a.UniqueName,
				spec.EdgeServiceLabel: a.UniqueName,
			},
			Containers: a.Containers,
		},
		SchedulerName: a.SchedulerName,
	}
	p.Sleep(c.api.t.request)
	if err := c.api.Deployments.Create(d); err != nil {
		return err
	}
	nodePort := c.nextPort
	c.nextPort++
	svc := &Service{
		Name:       a.UniqueName,
		Selector:   map[string]string{"app": a.UniqueName},
		Port:       a.Reg.Port,
		TargetPort: a.TargetPort,
		NodePort:   nodePort,
	}
	p.Sleep(c.api.t.request)
	if err := c.api.Services.Create(svc); err != nil {
		return err
	}
	c.services[a.UniqueName] = a
	return nil
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
	c.ops.ScaleUp++
	if err := c.faults.ScaleUpError(); err != nil {
		return cluster.Instance{}, err
	}
	p.Sleep(c.api.t.request)
	d, err := c.api.Deployments.Get(name)
	if err != nil {
		return cluster.Instance{}, err
	}
	if d.Replicas < 1 {
		d = d.clone()
		d.Replicas = 1
		p.Sleep(c.api.t.request)
		if err := c.api.Deployments.Update(d); err != nil {
			return cluster.Instance{}, err
		}
	}
	p.Sleep(c.api.t.request)
	svc, err := c.api.Services.Get(name)
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
	w.Init(c.api.k, w, c.api.t.request)
	w.Charge(bindWaitRead)
	return w.done.Await(p)
}

// ErrBindTimeout is returned (wrapped) by ScaleUp when no pod of the service
// was bound to the node within bindMaxWait: the pod's requests do not fit in
// what the node's bound pods leave free.
var ErrBindTimeout = errors.New("kube: no pod was bound to the node")

// bindMaxWait bounds ScaleUp's wait for a bound pod, so a pod parked in the
// scheduler's unschedulable set becomes a deployment error (retried, then
// answered from the next cluster or the cloud) instead of a deployment that
// never returns. It equals core.DefaultProbeMaxWait, the bound on the wait
// that follows this one.
const bindMaxWait = 5 * time.Minute

// bindWait is ScaleUp's wait for a bound pod as a continuation: pay the API
// request latency of a pod list, read the service's pods, and if none is bound
// pause bindPoll and list again. The bound is checked only after a list
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
		if pod.NodeName != c.node.name {
			continue
		}
		if c.faults.CrashAfterStart() {
			c.crashPod(pod.Name, w.name)
		}
		w.done.Resolve(cluster.Instance{
			Service: w.name,
			Cluster: c.name,
			Addr:    c.node.rt.Host().IP(),
			Port:    w.port,
		})
		return nil
	}
	if w.Now() >= w.deadline {
		w.done.Fail(fmt.Errorf("%w: %s on %s after %v", ErrBindTimeout, w.name, c.name, bindMaxWait))
		return nil
	}
	w.Sleep(c.api.t.bindPoll, func(*bindWait) sim.Step[bindWait] { return bindWaitRead })
	return nil
}

// crashPod models a pod whose processes die right after the kubelet starts
// them: a bounded watcher polls every 100 ms for the pod's containers to come
// up, kills them once, and stops. The pod object stays Running — the kubelet
// does not watch process health here — so only the controller's port probing
// notices the crash; a retry's ScaleDown deletes the pod and schedules a fresh
// one. The first look is one zero-delay event from now, where Kernel.Go
// started the watcher as a process.
func (c *Cluster) crashPod(podName, svcName string) {
	w := &crashWatch{rt: c.node.rt, pod: podName, svc: svcName, deadline: c.api.k.Now() + 30*time.Second}
	w.Init(c.api.k, w, 0)
	w.Sleep(0, crashPoll)
}

type crashWatch struct {
	sim.Cont[crashWatch]
	rt       *container.Runtime
	pod, svc string
	deadline sim.Time
}

func crashPoll(w *crashWatch) sim.Step[crashWatch] {
	if w.Now() >= w.deadline {
		return nil
	}
	killed := false
	for _, ctr := range w.rt.List(map[string]string{"app": w.svc}) {
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
	c.ops.ScaleDown++
	p.Sleep(c.api.t.request)
	d, err := c.api.Deployments.Get(name)
	if err != nil || d.Replicas == 0 {
		return err
	}
	d = d.clone()
	d.Replicas = 0
	p.Sleep(c.api.t.request)
	return c.api.Deployments.Update(d)
}

// Remove implements cluster.Cluster: delete the Deployment (cascading to
// ReplicaSet and Pods) and the Service.
func (c *Cluster) Remove(p *sim.Proc, name string) error {
	if _, ok := c.services[name]; !ok {
		return fmt.Errorf("%w: %s", cluster.ErrUnknownService, name)
	}
	p.Sleep(c.api.t.request)
	if err := c.api.Deployments.Delete(name); err != nil {
		return err
	}
	p.Sleep(c.api.t.request)
	if err := c.api.Services.Delete(name); err != nil {
		return err
	}
	delete(c.services, name)
	return nil
}

// Endpoint implements cluster.Cluster: the first running (containers
// started) pod of the service by name, exposed on the node at the service
// NodePort.
func (c *Cluster) Endpoint(name string) (cluster.Instance, bool) {
	svc, ok := c.api.Services.byName[name]
	if !ok {
		return cluster.Instance{}, false
	}
	for _, pod := range c.api.podsMatching(svc.Selector) {
		if pod.Phase == PodRunning && pod.NodeName == c.node.name {
			return cluster.Instance{Service: name, Cluster: c.name, Addr: c.node.rt.Host().IP(), Port: svc.NodePort}, true
		}
	}
	return cluster.Instance{}, false
}

// Services implements cluster.Cluster.
func (c *Cluster) Services() []string {
	return slices.Sorted(maps.Keys(c.services))
}
