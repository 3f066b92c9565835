package kube

import (
	"maps"
	"sort"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/sim"
)

// KubeletConfig models node-agent latencies.
type KubeletConfig struct {
	// SyncPeriod is the periodic reconcile interval (backstop for missed
	// watch events; also what makes kubelet latency partly quantized).
	SyncPeriod time.Duration
	// ProcessDelay is per-pod-sync overhead (PLEG, cgroup and volume
	// bookkeeping).
	ProcessDelay time.Duration
	// SandboxDelay is pod sandbox setup: pause container plus CNI network
	// namespace wiring — the dominant per-pod cost (cf. Mohan et al.).
	SandboxDelay time.Duration
}

// DefaultKubeletConfig mirrors a single-node kubelet on server hardware.
func DefaultKubeletConfig() KubeletConfig {
	return KubeletConfig{
		SyncPeriod:   time.Second,
		ProcessDelay: 120 * time.Millisecond,
		SandboxDelay: 1100 * time.Millisecond,
	}
}

// Kubelet drives the container runtime of one node from the API server's
// pod objects.
type Kubelet struct {
	api       *APIServer
	nodeName  string
	rt        *container.Runtime
	behaviors cluster.BehaviorSource
	cfg       KubeletConfig
	pods      map[string]*podRuntime
	failed    bool
}

type podRuntime struct {
	containers []*container.Container
	starting   bool
	// deleted marks that the pod was removed while its startup worker was
	// still running; the worker cleans up whatever it started afterwards.
	deleted bool
}

// RunKubelet starts a kubelet for nodeName on the given runtime.
func RunKubelet(api *APIServer, nodeName string, rt *container.Runtime, behaviors cluster.BehaviorSource, cfg KubeletConfig) *Kubelet {
	kl := &Kubelet{
		api:       api,
		nodeName:  nodeName,
		rt:        rt,
		behaviors: behaviors,
		cfg:       cfg,
		pods:      make(map[string]*podRuntime),
	}
	w := api.Watch(KindPod)
	k := api.k
	k.Go("kubelet:"+nodeName+":watch", func(p *sim.Proc) {
		for {
			ev, ok := w.Recv(p)
			if !ok {
				return
			}
			kl.handleEvent(p, ev)
		}
	})
	if cfg.SyncPeriod > 0 {
		k.Go("kubelet:"+nodeName+":sync", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.SyncPeriod)
				kl.resync(p)
			}
		})
	}
	return kl
}

func (kl *Kubelet) handleEvent(p *sim.Proc, ev Event) {
	if kl.failed {
		return
	}
	switch ev.Type {
	case Deleted:
		pod, _ := ev.Object.(*Pod)
		if pod != nil && pod.NodeName == kl.nodeName {
			kl.teardown(p, ev.Name)
		}
	case Added, Modified:
		pod, _ := ev.Object.(*Pod)
		if pod == nil || pod.NodeName != kl.nodeName {
			return
		}
		kl.maybeStart(pod)
	}
}

func (kl *Kubelet) resync(p *sim.Proc) {
	if kl.failed {
		return
	}
	// Start pods we missed; tear down containers whose pod is gone.
	for _, pod := range kl.api.ListPodsByNode(p, kl.nodeName) {
		if pod.Phase == PodPending {
			kl.maybeStart(pod)
		}
	}
	// Each teardown sleeps, so the order is the stop order: by name, not by
	// map iteration.
	var gone []string
	for name, pr := range kl.pods {
		if pod := kl.api.Pods.byName[name]; (pod == nil || pod.NodeName != kl.nodeName) && !pr.starting {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		kl.teardown(p, name)
	}
}

// maybeStart launches a startup worker for the pod unless one ran already.
func (kl *Kubelet) maybeStart(pod *Pod) {
	if _, tracked := kl.pods[pod.Name]; tracked {
		return
	}
	pr := &podRuntime{starting: true}
	kl.pods[pod.Name] = pr
	kl.api.k.Go("kubelet:"+kl.nodeName+":start:"+pod.Name, func(p *sim.Proc) {
		kl.startPod(p, pod, pr)
	})
}

func (kl *Kubelet) startPod(p *sim.Proc, pod *Pod, pr *podRuntime) {
	defer func() {
		pr.starting = false
		if pr.deleted {
			// The pod was deleted while we were starting it: undo.
			kl.teardownRuntime(p, pr)
		}
	}()
	p.Sleep(kl.cfg.ProcessDelay)
	// Image pull policy IfNotPresent: the Pull phase normally ran already,
	// but the kubelet remains correct without it.
	for _, cs := range pod.Spec.Containers {
		if !kl.rt.HasImage(cs.Image) {
			if err := kl.rt.PullImage(p, cs.Image); err != nil {
				delete(kl.pods, pod.Name)
				return
			}
		}
	}
	p.Sleep(kl.cfg.SandboxDelay)
	for _, cs := range pod.Spec.Containers {
		if pr.deleted {
			return
		}
		b := kl.behaviors.Behavior(cs.Image)
		cfg := container.Config{
			Name:      pod.Name + "." + cs.Name,
			Image:     cs.Image,
			AppPort:   cs.ContainerPort,
			InitDelay: b.InitDelay,
			Labels:    maps.Clone(pod.Labels),
			Env:       cs.Env,
		}
		if cs.ContainerPort > 0 {
			cfg.AsyncHandler = b.AsyncHandler()
		}
		for _, m := range cs.Mounts {
			cfg.Mounts = append(cfg.Mounts, container.Mount{
				Name: m.Name, HostPath: m.HostPath, ContainerPath: m.ContainerPath,
			})
		}
		ctr, err := kl.rt.Create(p, cfg)
		if err != nil {
			continue
		}
		hostPort := 0
		if cs.ContainerPort > 0 {
			hostPort = kl.api.NodePortFor(pod, cs.ContainerPort)
		}
		if err := ctr.Start(p, hostPort); err == nil {
			pr.containers = append(pr.containers, ctr)
		}
	}
	// The pod may have been deleted while we were starting it (the watch
	// event then marked pr.deleted; the deferred cleanup handles it).
	latest, err := kl.api.Pods.Get(p, pod.Name)
	if err != nil {
		pr.deleted = true
		delete(kl.pods, pod.Name)
		return
	}
	latest.Phase = PodRunning
	latest.HostPort = kl.api.NodePortFor(latest, firstContainerPort(latest.Spec))
	kl.api.Pods.Update(p, latest)
}

func firstContainerPort(t PodTemplate) int {
	for _, c := range t.Containers {
		if c.ContainerPort > 0 {
			return c.ContainerPort
		}
	}
	return 0
}

func (kl *Kubelet) teardown(p *sim.Proc, podName string) {
	pr, ok := kl.pods[podName]
	if !ok {
		return
	}
	delete(kl.pods, podName)
	pr.deleted = true
	if pr.starting {
		// The startup worker is still running; it cleans up what it
		// started once it finishes (deferred teardownRuntime).
		return
	}
	kl.teardownRuntime(p, pr)
}

func (kl *Kubelet) teardownRuntime(p *sim.Proc, pr *podRuntime) {
	for _, ctr := range pr.containers {
		if ctr.State() == container.StateRunning {
			ctr.Stop(p)
		}
		if ctr.State() != container.StateRemoved {
			ctr.Remove(p)
		}
	}
	pr.containers = nil
}
