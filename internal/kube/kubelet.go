package kube

import (
	"sort"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/sim"
)

// kubelet drives the container runtime of one node from the API server's
// pod objects: a relay on the pod watch starts a worker for each pod bound to
// the node and forgets deleted ones, and the kubelet itself is the periodic
// resync, a continuation whose steps pay the API request latency.
type kubelet struct {
	sim.Cont[kubelet]
	api       *APIServer
	nodeName  string
	rt        *container.Runtime
	behaviors cluster.BehaviorSource
	pods      map[string]*podWorker
	heard     int  // pod events received
	deletes   int  // Deleted events of the node's pods received
	retry     bool // a failed pull left a Pending pod of the node untracked
}

// RunKubelet starts a kubelet for nodeName on the given runtime.
func RunKubelet(api *APIServer, nodeName string, rt *container.Runtime, behaviors cluster.BehaviorSource) {
	kl := &kubelet{
		api:       api,
		nodeName:  nodeName,
		rt:        rt,
		behaviors: behaviors,
		pods:      make(map[string]*podWorker),
	}
	api.relay(KindPod, kl.handle)
	kl.Init(api.k, kl, api.t.request)
	kl.Sleep(0, resyncWait) // where Kernel.Go started the sync loop
}

func (kl *kubelet) handle(ev Event) {
	kl.heard++
	pod, _ := ev.Object.(*Pod)
	if pod == nil || pod.NodeName != kl.nodeName {
		return
	}
	if ev.Type == Deleted {
		kl.deletes++
		kl.forget(ev.Name)
	} else {
		kl.maybeStart(pod)
	}
}

func resyncWait(kl *kubelet) sim.Step[kubelet] {
	kl.Sleep(kl.api.t.sync, func(*kubelet) sim.Step[kubelet] { return resync })
	return nil
}

// resync lists the node's pods, starts the ones the watch missed and forgets,
// by name, the ones that are gone. Each pass runs only when it can find
// something. A Pending pod of the node is untracked only while its event is
// in flight, or after a failed pull untracked it: while the kubelet has heard
// every pod write and no pull failed, there is nothing to start. A tracked
// pod is gone only after a departure from the node that the watch has not
// delivered as a delete: while every departure the store counted was heard,
// there is nothing to forget.
func resync(kl *kubelet) sim.Step[kubelet] {
	if kl.heard != kl.api.podWrites || kl.retry {
		kl.retry = false
		for _, pod := range kl.api.podsByNode[kl.nodeName].scan() {
			if pod.Phase == PodPending {
				kl.maybeStart(pod)
			}
		}
	}
	if kl.deletes == kl.api.departed[kl.nodeName] {
		return resyncWait(kl)
	}
	var gone []string
	for name, w := range kl.pods {
		if pod := kl.api.Pods.byName[name]; (pod == nil || pod.NodeName != kl.nodeName) && !w.starting {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		kl.forget(name)
	}
	return resyncWait(kl)
}

// podWorker is one pod's worker, as in the real kubelet: a continuation that
// starts the pod's containers and, once the pod is gone, stops and removes
// them. Its steps pay the API request latency; the container operations pay
// the runtime's delays.
type podWorker struct {
	sim.Cont[podWorker]
	kl         *kubelet
	pod        *Pod
	containers []*container.Container
	starting   bool
	deleted    bool // the pod is gone: tear it down once start-up ends
	i          int  // the container spec to pull or start next
}

// maybeStart starts a worker for the pod unless it has one.
func (kl *kubelet) maybeStart(pod *Pod) {
	if _, tracked := kl.pods[pod.Name]; tracked {
		return
	}
	w := &podWorker{kl: kl, pod: pod, starting: true}
	kl.pods[pod.Name] = w
	w.Init(kl.api.k, w, kl.api.t.request)
	w.Sleep(0, func(w *podWorker) sim.Step[podWorker] { // where Kernel.Go started a process
		w.Sleep(w.kl.api.t.process, podPull)
		return nil
	})
}

// forget drops a deleted pod; its worker tears it down now, or once its
// start-up ends.
func (kl *kubelet) forget(podName string) {
	w, ok := kl.pods[podName]
	if !ok {
		return
	}
	delete(kl.pods, podName)
	w.deleted = true
	if !w.starting {
		podTeardown(w)
	}
}

// podPull pulls the pod's missing images one after another (pull policy
// IfNotPresent: the Pull phase normally ran already, but the kubelet remains
// correct without it), then sets up the sandbox.
func podPull(w *podWorker) sim.Step[podWorker] {
	for ; w.i < len(w.pod.Spec.Containers); w.i++ {
		if img := w.pod.Spec.Containers[w.i].Image; !w.kl.rt.HasImage(img) {
			w.kl.rt.Images().PullAsync(img, w.pulled)
			return nil
		}
	}
	w.i = 0
	w.Sleep(w.kl.api.t.sandbox, podCreate)
	return nil
}

// pulled goes on one zero-delay event after the pull, where a process
// waiting for it woke. A failed pull ends the start-up and leaves the pod to
// the next event or resync.
func (w *podWorker) pulled(err error) {
	w.Sleep(0, func(w *podWorker) sim.Step[podWorker] {
		if err != nil {
			delete(w.kl.pods, w.pod.Name)
			w.kl.retry = true
			return w.started()
		}
		w.i++
		return podPull(w)
	})
}

// podCreate creates and starts the pod's next container, or reads the pod
// back once all are started; a pod deleted meanwhile ends the start-up.
func podCreate(w *podWorker) sim.Step[podWorker] {
	if w.i == len(w.pod.Spec.Containers) {
		return podGet
	}
	if w.deleted {
		return w.started()
	}
	w.Sleep(w.kl.rt.Delays().Create, podCreated)
	return nil
}

// podCreated starts the container just created on the NodePort of the
// Service targeting its port, if any.
func podCreated(w *podWorker) sim.Step[podWorker] {
	kl, cs := w.kl, w.pod.Spec.Containers[w.i]
	w.i++
	ctr, err := kl.rt.Create(cluster.ContainerConfig(kl.behaviors, cs, w.pod.Name+"."+cs.Name, w.pod.Labels))
	if err != nil {
		return podCreate(w)
	}
	w.containers = append(w.containers, ctr)
	port := kl.api.NodePortFor(w.pod, cs.ContainerPort)
	w.Sleep(kl.rt.Delays().Start, func(w *podWorker) sim.Step[podWorker] {
		w.containers[len(w.containers)-1].Start(port)
		return podCreate(w)
	})
	return nil
}

// podGet reads the pod back: one deleted while it started is torn down, a
// live one is marked Running with its NodePort.
func podGet(w *podWorker) sim.Step[podWorker] {
	latest, err := w.kl.api.Pods.Get(nil, w.pod.Name)
	if err != nil {
		w.deleted = true
		delete(w.kl.pods, w.pod.Name)
		return w.started()
	}
	w.pod = latest.clone()
	w.pod.Phase = PodRunning
	w.pod.HostPort = w.kl.api.NodePortFor(w.pod, firstContainerPort(w.pod.Spec))
	return func(w *podWorker) sim.Step[podWorker] {
		w.kl.api.Pods.Update(nil, w.pod)
		return w.started()
	}
}

// started ends the start-up; a pod deleted meanwhile is torn down now.
func (w *podWorker) started() sim.Step[podWorker] {
	w.starting = false
	if w.deleted {
		return podTeardown(w)
	}
	return nil
}

func firstContainerPort(t PodTemplate) int {
	for _, c := range t.Containers {
		if c.ContainerPort > 0 {
			return c.ContainerPort
		}
	}
	return 0
}

// podTeardown stops and removes the pod's containers, one after another.
func podTeardown(w *podWorker) sim.Step[podWorker] {
	if len(w.containers) == 0 {
		return nil
	}
	if w.containers[0].State() == container.StateRunning {
		w.Sleep(w.kl.rt.Delays().Stop, func(w *podWorker) sim.Step[podWorker] {
			w.containers[0].Stop()
			return podTeardown(w)
		})
	} else {
		w.Sleep(w.kl.rt.Delays().Remove, func(w *podWorker) sim.Step[podWorker] {
			w.containers[0].Remove()
			w.containers = w.containers[1:]
			return podTeardown(w)
		})
	}
	return nil
}
