package kube

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// The control plane's loops as they ran before they became passes: one
// process per work-queue worker parked on a sim.Chan, a scheduler process
// with one process per bind, and node-lifecycle and heartbeat processes. Kept
// as the oracles the tests below compare the callback control plane against,
// each on a kernel of its own.

type chanWorkQueue struct {
	k      *sim.Kernel
	ch     *sim.Chan[string]
	queued map[string]bool
	active map[string]bool
	again  map[string]bool
}

func newChanWorkQueue(k *sim.Kernel) *chanWorkQueue {
	return &chanWorkQueue{
		k:      k,
		ch:     sim.NewChan[string](k),
		queued: make(map[string]bool),
		active: make(map[string]bool),
		again:  make(map[string]bool),
	}
}

func (q *chanWorkQueue) Add(key string) {
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

func (q *chanWorkQueue) run(name string, workers int, process func(p *sim.Proc, key string)) {
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

// relayLoop is a relay as the process it was: it moves each event of the
// watch channel into fn.
func relayLoop(api *APIServer, kind Kind, fn func(Event)) {
	ch := api.Watch(kind)
	api.k.Go("relay", func(p *sim.Proc) {
		for {
			ev, _ := ch.Recv(p)
			fn(ev)
		}
	})
}

func runDeploymentControllerLoop(api *APIServer, cfg ControllerConfig) {
	q := newChanWorkQueue(api.k)
	relayLoop(api, KindDeployment, func(ev Event) { q.Add(ev.Name) })
	q.run("deployment-controller:worker", cfg.Workers, func(p *sim.Proc, name string) {
		p.Sleep(cfg.ReconcileDelay)
		reconcileDeploymentLoop(p, api, name)
	})
}

func reconcileDeploymentLoop(p *sim.Proc, api *APIServer, name string) {
	d, err := api.Deployments.Get(p, name)
	if err != nil {
		if _, rserr := api.ReplicaSets.Get(p, rsName(name)); rserr == nil {
			api.ReplicaSets.Delete(p, rsName(name))
		}
		return
	}
	rs, err := api.ReplicaSets.Get(p, rsName(d.Name))
	if err != nil {
		api.ReplicaSets.Create(p, &ReplicaSet{
			Name:          rsName(d.Name),
			Owner:         d.Name,
			Labels:        maps.Clone(d.Labels),
			Replicas:      d.Replicas,
			Template:      copyTemplate(d.Template),
			SchedulerName: d.SchedulerName,
		})
		return
	}
	if rs.Replicas != d.Replicas {
		rs.Replicas = d.Replicas
		api.ReplicaSets.Update(p, rs)
	}
}

func runReplicaSetControllerLoop(api *APIServer, cfg ControllerConfig) {
	q := newChanWorkQueue(api.k)
	relayLoop(api, KindReplicaSet, func(ev Event) { q.Add(ev.Name) })
	relayLoop(api, KindPod, func(ev Event) {
		if pod, _ := ev.Object.(*Pod); pod != nil && pod.Owner != "" {
			q.Add(pod.Owner)
		}
	})
	q.run("replicaset-controller:worker", cfg.Workers, func(p *sim.Proc, name string) {
		p.Sleep(cfg.ReconcileDelay)
		reconcileReplicaSetLoop(p, api, name)
	})
}

func reconcileReplicaSetLoop(p *sim.Proc, api *APIServer, name string) {
	rs, err := api.ReplicaSets.Get(p, name)
	if err != nil {
		for _, pod := range api.ListPodsByOwner(p, name) {
			api.Pods.Delete(p, pod.Name)
		}
		return
	}
	pods := api.ListPodsByOwner(p, rs.Name)
	switch {
	case len(pods) < rs.Replicas:
		for i := len(pods); i < rs.Replicas; i++ {
			api.CreatePod(p, &Pod{
				Owner:         rs.Name,
				Labels:        maps.Clone(rs.Template.Labels),
				Spec:          copyTemplate(rs.Template),
				SchedulerName: rs.SchedulerName,
				Phase:         PodPending,
			})
		}
	case len(pods) > rs.Replicas:
		for i := len(pods) - 1; i >= rs.Replicas; i-- {
			api.Pods.Delete(p, pods[i].Name)
		}
	}
}

func runSchedulerLoop(api *APIServer, cfg SchedulerConfig, nodes []NodeRef) {
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
	schedule := func(p *sim.Proc, name string) {
		pod, err := api.Pods.Get(nil, name)
		if err != nil || pod.NodeName != "" || pod.Phase != PodPending || inflight[pod.Name] || !mine(pod) {
			return
		}
		inflight[pod.Name] = true
		p.Sleep(cfg.CycleDelay)
		api.k.Go("scheduler:"+cfg.Name+":bind:"+name, func(bp *sim.Proc) {
			defer delete(inflight, name)
			if rest := cfg.BindingDelay - cfg.CycleDelay; rest > 0 {
				bp.Sleep(rest)
			}
			pod, err := api.Pods.Get(bp, name)
			if err != nil || pod.NodeName != "" {
				return
			}
			needCPU, needMem := podRequests(pod.Spec)
			status := make([]NodeStatus, 0, len(nodes))
			api.charge(bp)
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
			api.Pods.Update(bp, pod)
		})
	}
	w := api.Watch(KindPod)
	api.k.Go("scheduler:"+cfg.Name, func(p *sim.Proc) {
		for {
			ev, ok := w.Recv(p)
			if !ok {
				return
			}
			if ev.Type == Deleted {
				delete(unschedulable, ev.Name)
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

func runNodeLifecycleLoop(api *APIServer, cfg NodeLifecycleConfig) {
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = 5 * time.Second
	}
	if cfg.GracePeriod <= 0 {
		cfg.GracePeriod = 40 * time.Second
	}
	api.k.Go("node-lifecycle-controller", func(p *sim.Proc) {
		for {
			p.Sleep(cfg.MonitorPeriod)
			now := api.k.Now()
			for _, n := range api.Nodes.List(p) {
				if !n.Ready || now-n.LastHeartbeat <= cfg.GracePeriod {
					continue
				}
				stale := api.nodes.byName[n.Name].clone()
				stale.Ready = false
				api.nodes.put(stale, Modified)
				for _, pod := range api.ListPodsByNode(p, n.Name) {
					api.Pods.Delete(p, pod.Name)
				}
			}
		}
	})
}

func startHeartbeatLoop(kl *Kubelet, period time.Duration) {
	if period <= 0 {
		return
	}
	kl.api.k.Go("kubelet:"+kl.nodeName+":heartbeat", func(p *sim.Proc) {
		for {
			if !kl.failed {
				kl.api.UpsertNode(p, kl.nodeName, true)
			}
			p.Sleep(period)
		}
	})
}

// planes are the two control planes under comparison: the process oracle
// first, the callbacks second.
var planes = []struct {
	deployments func(*APIServer, ControllerConfig)
	replicaSets func(*APIServer, ControllerConfig)
	scheduler   func(*APIServer, SchedulerConfig, []NodeRef)
	lifecycle   func(*APIServer, NodeLifecycleConfig)
	heartbeats  func(*Kubelet, time.Duration)
}{
	{runDeploymentControllerLoop, runReplicaSetControllerLoop, runSchedulerLoop, runNodeLifecycleLoop, startHeartbeatLoop},
	{RunDeploymentController, RunReplicaSetController, RunScheduler, RunNodeLifecycleController, (*Kubelet).startHeartbeats},
}

// apiWrite is one write to the API server, as a subscriber to every kind saw
// it: each delivery comes WatchLatency after its write, in write order.
type apiWrite struct {
	At      sim.Time
	Type    EventType
	Kind    Kind
	Name    string
	Version uint64 // the snapshot's ResourceVersion: the last one for a delete
	What    string // what the control plane decides: replicas, binding, phase, readiness
}

func (w apiWrite) String() string {
	return fmt.Sprintf("%v %v %s %s v%d %s", w.At, w.Type, w.Kind, w.Name, w.Version, w.What)
}

func recordWrites(api *APIServer) *[]apiWrite {
	var log []apiWrite
	for _, kind := range []Kind{KindDeployment, KindReplicaSet, KindPod, KindService, KindNode} {
		api.Subscribe(kind, func(ev Event) {
			w := apiWrite{At: api.k.Now() - api.cfg.WatchLatency, Type: ev.Type, Kind: ev.Kind, Name: ev.Name}
			switch o := ev.Object.(type) {
			case *Deployment:
				w.Version, w.What = o.ResourceVersion, fmt.Sprint("replicas=", o.Replicas)
			case *ReplicaSet:
				w.Version, w.What = o.ResourceVersion, fmt.Sprint("replicas=", o.Replicas)
			case *Pod:
				w.Version, w.What = o.ResourceVersion, fmt.Sprintf("node=%s phase=%s", o.NodeName, o.Phase)
			case *Service:
				w.Version = o.ResourceVersion
			case *Node:
				w.Version, w.What = o.ResourceVersion, fmt.Sprintf("ready=%v heartbeat=%v", o.Ready, o.LastHeartbeat)
			}
			log = append(log, w)
		})
	}
	return &log
}

// compareWorlds runs world once per control plane and fails on the first
// difference between the two write logs (and whatever else the world
// reports).
func compareWorlds(t *testing.T, what string, world func(plane int) (writes []apiWrite, extra any)) {
	t.Helper()
	want, wantExtra := world(0)
	got, gotExtra := world(1)
	if len(want) == 0 {
		t.Fatalf("%s: the reference wrote nothing", what)
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || got[i] != want[i] {
			var g, w any = "(none)", "(none)"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("%s: write %d of %d/%d\n got %v\nwant %v", what, i, len(got), len(want), g, w)
		}
	}
	if !reflect.DeepEqual(gotExtra, wantExtra) {
		t.Fatalf("%s:\n got %v\nwant %v", what, gotExtra, wantExtra)
	}
}

// TestWorkQueuesMatchChanWorkers: the Deployment and ReplicaSet controllers
// on callback passes make every API write of their process-worker oracle, at
// the same nanosecond and in the same order. Random scripts of Deployment
// bursts (twelve at one instant back the queues up several keys deep, the
// DESIGN §21 Add-ordering case), scale changes that land on active keys,
// cascading deletes, pods and ReplicaSets deleted out from under the
// controllers; one to five workers, request latency and reconcile delay 0 and
// > 0, on a whole-millisecond grid so that instants collide.
func TestWorkQueuesMatchChanWorkers(t *testing.T) {
	type op struct {
		at    time.Duration
		kind  int
		d     int
		value int
	}
	script := func(seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		var ops []op
		for i := 0; i < 12; i++ { // the burst
			ops = append(ops, op{0, 0, i, 1 + i%3})
		}
		for i := 0; i < 40; i++ {
			ops = append(ops, op{time.Duration(rng.Intn(60)) * 3 * time.Millisecond, rng.Intn(5), rng.Intn(14), rng.Intn(4)})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		return ops
	}
	for seed := int64(1); seed <= 4; seed++ {
		ops := script(seed)
		for _, workers := range []int{1, 2, 5} {
			for _, lat := range []time.Duration{0, 3 * time.Millisecond} {
				for _, delay := range []time.Duration{0, 6 * time.Millisecond} {
					for _, watch := range []time.Duration{0, 3 * time.Millisecond} {
						what := fmt.Sprintf("seed %d workers %d latency %v reconcile %v watch %v", seed, workers, lat, delay, watch)
						compareWorlds(t, what, func(plane int) ([]apiWrite, any) {
							k := sim.New(1)
							api := NewAPIServer(k, APIConfig{RequestLatency: lat, WatchLatency: watch})
							cfg := ControllerConfig{ReconcileDelay: delay, Workers: workers}
							planes[plane].deployments(api, cfg)
							planes[plane].replicaSets(api, cfg)
							log := recordWrites(api)
							name := func(d int) string { return fmt.Sprintf("d%02d", d) }
							for _, o := range ops {
								o := o
								k.At(o.at, func() {
									switch o.kind {
									case 0: // create, or scale
										if d, err := api.Deployments.Get(nil, name(o.d)); err == nil {
											d.Replicas = o.value
											api.Deployments.Update(nil, d)
										} else {
											api.Deployments.Create(nil, &Deployment{Name: name(o.d), Replicas: o.value,
												Template: PodTemplate{Labels: map[string]string{"app": name(o.d)}}})
										}
									case 1: // delete the Deployment: cascade
										api.Deployments.Delete(nil, name(o.d))
									case 2: // evict one pod: the ReplicaSet replaces it
										if pods := api.ListPodsByOwner(nil, rsName(name(o.d))); len(pods) > 0 {
											api.Pods.Delete(nil, pods[o.value%len(pods)].Name)
										}
									case 3: // delete the ReplicaSet: its pods go
										api.ReplicaSets.Delete(nil, rsName(name(o.d)))
									case 4: // scale to zero
										if d, err := api.Deployments.Get(nil, name(o.d)); err == nil {
											d.Replicas = 0
											api.Deployments.Update(nil, d)
										}
									}
								})
							}
							k.RunUntil(10 * time.Second)
							return *log, nil
						})
					}
				}
			}
		}
	}
}

// TestSchedulerMatchesProcLoop: the scheduler's loop and binds as callbacks
// make every write, every Pick call and every binding of the process loop
// with its bind processes, at the same nanosecond and in the same order. Two
// schedulers (the default one and a second, LocalSched-style, with its own
// Pick) share three nodes, one of them NotReady; pods that fit nowhere park
// and are retried after a delete; BindingDelay below, at and above
// CycleDelay; request and watch latency 0 and > 0, on a millisecond grid.
func TestSchedulerMatchesProcLoop(t *testing.T) {
	type op struct {
		at   time.Duration
		kind int
		pod  int
		cpu  int64
	}
	script := func(seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		var ops []op
		for i := 0; i < 50; i++ {
			ops = append(ops, op{time.Duration(rng.Intn(40)) * 10 * time.Millisecond, rng.Intn(3), rng.Intn(24), 250 * (1 + rng.Int63n(6))})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		return ops
	}
	nodes := []NodeRef{
		{Name: "n1", Cap: Capacity{CPUMillis: 3000, MemoryBytes: 1 << 30}},
		{Name: "n2", Cap: Capacity{CPUMillis: 2000, MemoryBytes: 1 << 30}},
		{Name: "n3", Cap: Capacity{CPUMillis: 8000, MemoryBytes: 1 << 30}}, // NotReady
	}
	for seed := int64(1); seed <= 3; seed++ {
		ops := script(seed)
		for _, cycle := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
			for _, binding := range []time.Duration{5 * time.Millisecond, cycle, 70 * time.Millisecond} {
				for _, lat := range []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond} {
					for _, watch := range []time.Duration{0, 10 * time.Millisecond} {
						what := fmt.Sprintf("seed %d cycle %v binding %v latency %v watch %v", seed, cycle, binding, lat, watch)
						compareWorlds(t, what, func(plane int) ([]apiWrite, any) {
							k := sim.New(1)
							api := NewAPIServer(k, APIConfig{RequestLatency: lat, WatchLatency: watch})
							var picks []string
							pick := func(who string, choose func([]NodeStatus) string) PickNodeFunc {
								return func(pod *Pod, st []NodeStatus) string {
									node := choose(st)
									picks = append(picks, fmt.Sprintf("%v %s %s %v -> %s", k.Now(), who, pod.Name, st, node))
									return node
								}
							}
							api.UpsertNode(nil, "n3", false)
							planes[plane].scheduler(api, SchedulerConfig{CycleDelay: cycle, BindingDelay: binding,
								Pick: pick("default", func(st []NodeStatus) string { return LeastLoaded(nil, st) })}, nodes)
							planes[plane].scheduler(api, SchedulerConfig{Name: "local", CycleDelay: cycle / 2, BindingDelay: binding,
								Pick: pick("local", func(st []NodeStatus) string { return st[len(st)-1].Name })}, nodes)
							log := recordWrites(api)
							name := func(i int) string { return fmt.Sprintf("pod-%02d", i) }
							for _, o := range ops {
								o := o
								k.At(o.at, func() {
									switch o.kind {
									case 0, 1: // create, for the default (kind 0) or the local scheduler
										sched := ""
										if o.kind == 1 {
											sched = "local"
										}
										api.CreatePod(nil, &Pod{Name: name(o.pod), SchedulerName: sched,
											Spec: PodTemplate{Containers: []spec.ContainerSpec{{Name: "c", CPUMillis: o.cpu}}}})
									case 2:
										api.Pods.Delete(nil, name(o.pod))
									}
								})
							}
							k.RunUntil(10 * time.Second)
							return *log, picks
						})
					}
				}
			}
		}
	}
}

// TestNodeLifecycleMatchesProcLoop: the node monitor and the heartbeats as
// callbacks make every write of their process loops — each heartbeat, each
// NotReady mark, each eviction — at the same nanosecond, through a node that
// fails, a second that fails later, and the first coming back
// (Kubelet.SetFailed). Equal heartbeat and monitor periods with a grace below
// them make a sweep's outcome hang on whether the heartbeat of the same
// instant ran first, which is the order of their start events; both start
// orders run.
func TestNodeLifecycleMatchesProcLoop(t *testing.T) {
	for _, cfg := range []NodeLifecycleConfig{
		{HeartbeatPeriod: time.Second, MonitorPeriod: time.Second, GracePeriod: 500 * time.Millisecond},
		{HeartbeatPeriod: time.Second, MonitorPeriod: time.Second, GracePeriod: 2 * time.Second},
		{HeartbeatPeriod: 2 * time.Second, MonitorPeriod: time.Second, GracePeriod: 3 * time.Second},
		{HeartbeatPeriod: time.Second, MonitorPeriod: 2 * time.Second, GracePeriod: 2 * time.Second},
	} {
		for _, lat := range []time.Duration{0, 15 * time.Millisecond, time.Second} {
			for _, monitorFirst := range []bool{false, true} {
				what := fmt.Sprintf("%+v latency %v monitor started first %v", cfg, lat, monitorFirst)
				compareWorlds(t, what, func(plane int) ([]apiWrite, any) {
					k := sim.New(1)
					api := NewAPIServer(k, APIConfig{RequestLatency: lat, WatchLatency: 10 * time.Millisecond})
					log := recordWrites(api)
					var kubelets []*Kubelet
					for _, n := range []string{"n1", "n2", "n3"} {
						kubelets = append(kubelets, &Kubelet{api: api, nodeName: n})
						for i := 0; i < 2; i++ {
							api.CreatePod(nil, &Pod{Name: fmt.Sprintf("%s-pod-%d", n, i), NodeName: n})
						}
					}
					if monitorFirst {
						planes[plane].lifecycle(api, cfg)
					}
					for _, kl := range kubelets {
						planes[plane].heartbeats(kl, cfg.HeartbeatPeriod)
					}
					if !monitorFirst {
						planes[plane].lifecycle(api, cfg)
					}
					k.At(3*time.Second, func() { kubelets[0].SetFailed(true) })
					k.At(4500*time.Millisecond, func() { kubelets[1].SetFailed(true) })
					k.At(12*time.Second, func() {
						kubelets[0].SetFailed(false)
						api.CreatePod(nil, &Pod{Name: "n1-pod-late", NodeName: "n1"})
					})
					k.RunUntil(30 * time.Second)
					return *log, nil
				})
			}
		}
	}
}

// TestControlPlaneMatchesProcLoops runs whole clusters — two nodes with real
// kubelets, the default and a local scheduler — under Cluster.Start and under
// the process control plane, through deployments on both schedulers, a node
// failure (eviction, rescheduling) and the node's return,
// a scale-down and a removal, and compares every API write and every
// container's ready instant and final state.
func TestControlPlaneMatchesProcLoops(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(*Config) {},
		func(cfg *Config) { cfg.API.RequestLatency = 0 },
		func(cfg *Config) {
			cfg.Controller.Workers = 1
			cfg.NodeLifecycle = NodeLifecycleConfig{HeartbeatPeriod: time.Second, MonitorPeriod: time.Second, GracePeriod: 3 * time.Second}
		},
	} {
		cfg := DefaultConfig()
		cfg.LocalSched = &SchedulerConfig{Name: "edge-local-sched", BindingDelay: 100 * time.Millisecond}
		mutate(&cfg)
		compareWorlds(t, fmt.Sprintf("%+v", cfg), func(plane int) ([]apiWrite, any) {
			k := sim.New(1)
			n := simnet.NewNetwork(k)
			kc := New("k8s", k, cfg)
			beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
			for i, name := range []string{"n1", "n2"} {
				h := simnet.NewHost(n, name, simnet.Addr(fmt.Sprintf("10.0.%d.1", i+1)))
				regHost := simnet.NewHost(n, name+"-reg", simnet.Addr(fmt.Sprintf("10.0.%d.10", i+1)))
				r := simnet.NewRouter(n, name+"-r")
				_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
				_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
				r.AddRoute(h.IP(), hp)
				r.AddRoute(regHost.IP(), rp)
				srv := registry.NewServer(regHost, registry.ServerConfig{})
				srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
				res := registry.NewResolver()
				res.AddPrefix("", regHost.IP())
				kc.AddNode(name, container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig()), beh, DefaultCapacity())
			}
			if plane == 1 {
				kc.Start()
			} else {
				pl := planes[0]
				kc.started = true
				pl.deployments(kc.api, cfg.Controller)
				pl.replicaSets(kc.api, cfg.Controller)
				refs := []NodeRef{{Name: "n1", Cap: DefaultCapacity()}, {Name: "n2", Cap: DefaultCapacity()}}
				pl.scheduler(kc.api, cfg.Scheduler, refs)
				pl.scheduler(kc.api, *cfg.LocalSched, refs)
				for _, nd := range kc.nodes {
					nd.kubelet = RunKubelet(kc.api, nd.name, nd.rt, nd.beh, cfg.Kubelet)
					pl.heartbeats(nd.kubelet, cfg.NodeLifecycle.HeartbeatPeriod)
				}
				pl.lifecycle(kc.api, cfg.NodeLifecycle)
			}
			log := recordWrites(kc.api)
			var services []*spec.Annotated
			for i := 0; i < 4; i++ {
				def, _ := spec.Parse(nginxYAML)
				opts := spec.Options{}
				if i%2 == 1 {
					opts.SchedulerName = "edge-local-sched"
				}
				a, _ := spec.Annotate(def, spec.Registration{Domain: fmt.Sprintf("s%d.example.com", i), VIP: "203.0.113.10", Port: 80}, opts)
				services = append(services, a)
			}
			for i, a := range services {
				a := a
				k.Go("driver", func(p *sim.Proc) {
					p.Sleep(time.Duration(i) * 10 * time.Millisecond)
					kc.Pull(p, a)
					kc.Create(p, a)
					kc.ScaleUp(p, a.UniqueName)
					p.SleepUntil(20 * time.Second)
					if i == 1 {
						kc.Kubelet("n1").SetFailed(true)
					}
					p.SleepUntil(90 * time.Second)
					switch i {
					case 1:
						kc.Kubelet("n1").SetFailed(false)
					case 2:
						kc.ScaleDown(p, a.UniqueName)
					case 3:
						kc.Remove(p, a.UniqueName)
					}
				})
			}
			k.RunUntil(3 * time.Minute)
			var ctrs []string
			for _, nd := range kc.nodes {
				for _, ctr := range nd.rt.List(nil) {
					ctrs = append(ctrs, fmt.Sprintf("%s/%s ready %v %v", nd.name, ctr.Name(), ctr.ReadyAt(), ctr.State()))
				}
			}
			return *log, ctrs
		})
	}
}
