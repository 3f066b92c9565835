package kube

import (
	"fmt"
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
// process per work-queue worker parked on a queue, and a scheduler process
// with one process per bind. Kept as the oracles the tests below compare the callback control plane against,
// each on a kernel of its own.

// procQueue is an unbounded queue processes receive from: Send appends and
// resolves the oldest waiter's promise, which wakes that process one
// zero-delay event after the Send, as a receive on a sim.Chan did.
type procQueue[T any] struct {
	k       *sim.Kernel
	items   []T
	waiters []*sim.Promise[struct{}]
}

func (q *procQueue[T]) Send(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.Resolve(struct{}{})
	}
}

// recv pops the oldest item, or awaits the next Send when there is none.
func (q *procQueue[T]) recv(p *sim.Proc) T {
	for len(q.items) == 0 {
		pr := sim.NewPromise[struct{}](q.k)
		q.waiters = append(q.waiters, pr)
		pr.Await(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// watch subscribes a procQueue to kind.
func watch(api *APIServer, kind Kind) *procQueue[Event] {
	q := &procQueue[Event]{k: api.k}
	api.Subscribe(kind, q.Send)
	return q
}

type chanWorkQueue struct {
	k      *sim.Kernel
	ch     *procQueue[string]
	queued map[string]bool
	active map[string]bool
	again  map[string]bool
}

func newChanWorkQueue(k *sim.Kernel) *chanWorkQueue {
	return &chanWorkQueue{
		k:      k,
		ch:     &procQueue[string]{k: k},
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
				key := q.ch.recv(p)
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
	ch := watch(api, kind)
	api.k.Go("relay", func(p *sim.Proc) {
		for {
			fn(ch.recv(p))
		}
	})
}

func runDeploymentControllerLoop(api *APIServer) {
	q := newChanWorkQueue(api.k)
	relayLoop(api, KindDeployment, func(ev Event) { q.Add(ev.Name) })
	q.run("deployment-controller:worker", api.t.workers, func(p *sim.Proc, name string) {
		p.Sleep(api.t.reconcile)
		reconcileDeploymentLoop(p, api, name)
	})
}

// pay sleeps the API request latency in p before an API call (nothing when
// the calibration zeroes it), as the continuations charge it in their steps.
func pay(p *sim.Proc, api *APIServer) {
	if api.t.request > 0 {
		p.Sleep(api.t.request)
	}
}

func reconcileDeploymentLoop(p *sim.Proc, api *APIServer, name string) {
	pay(p, api)
	d, err := api.Deployments.Get(name)
	if err != nil {
		pay(p, api)
		if _, rserr := api.ReplicaSets.Get(rsName(name)); rserr == nil {
			pay(p, api)
			api.ReplicaSets.Delete(rsName(name))
		}
		return
	}
	pay(p, api)
	rs, err := api.ReplicaSets.Get(rsName(d.Name))
	if err != nil {
		pay(p, api)
		api.ReplicaSets.Create(&ReplicaSet{
			Name:          rsName(d.Name),
			Replicas:      d.Replicas,
			Template:      d.Template,
			SchedulerName: d.SchedulerName,
		})
		return
	}
	if rs.Replicas != d.Replicas {
		rs = rs.clone()
		rs.Replicas = d.Replicas
		pay(p, api)
		api.ReplicaSets.Update(rs)
	}
}

func runReplicaSetControllerLoop(api *APIServer) {
	q := newChanWorkQueue(api.k)
	relayLoop(api, KindReplicaSet, func(ev Event) { q.Add(ev.Name) })
	relayLoop(api, KindPod, func(ev Event) {
		if pod, _ := ev.Object.(*Pod); pod != nil && pod.Owner != "" {
			q.Add(pod.Owner)
		}
	})
	q.run("replicaset-controller:worker", api.t.workers, func(p *sim.Proc, name string) {
		p.Sleep(api.t.reconcile)
		reconcileReplicaSetLoop(p, api, name)
	})
}

func reconcileReplicaSetLoop(p *sim.Proc, api *APIServer, name string) {
	pay(p, api)
	rs, err := api.ReplicaSets.Get(name)
	if err != nil {
		pay(p, api)
		for _, pod := range api.ListPodsByOwner(name) {
			pay(p, api)
			api.Pods.Delete(pod.Name)
		}
		return
	}
	pay(p, api)
	pods := api.ListPodsByOwner(rs.Name)
	switch {
	case len(pods) < rs.Replicas:
		for i := len(pods); i < rs.Replicas; i++ {
			pay(p, api)
			api.CreatePod(&Pod{
				Owner:         rs.Name,
				Labels:        rs.Template.Labels,
				Spec:          rs.Template,
				SchedulerName: rs.SchedulerName,
				Phase:         PodPending,
			})
		}
	case len(pods) > rs.Replicas:
		for i := len(pods) - 1; i >= rs.Replicas; i-- {
			pay(p, api)
			api.Pods.Delete(pods[i].Name)
		}
	}
}

func runSchedulerLoop(api *APIServer, cfg SchedulerConfig, cycle time.Duration, node string) {
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
		pod, err := api.Pods.Get(name)
		if err != nil || pod.NodeName != "" || pod.Phase != PodPending || inflight[pod.Name] || !mine(pod) {
			return
		}
		inflight[pod.Name] = true
		p.Sleep(cycle)
		api.k.Go("scheduler:"+cfg.Name+":bind:"+name, func(bp *sim.Proc) {
			defer delete(inflight, name)
			if rest := cfg.BindingDelay - cycle; rest > 0 {
				bp.Sleep(rest)
			}
			pay(bp, api)
			pod, err := api.Pods.Get(name)
			if err != nil || pod.NodeName != "" {
				return
			}
			needCPU, needMem := podRequests(pod.Spec)
			cpuFree, memFree := api.t.nodeCPU, api.t.nodeMem
			pay(bp, api)
			for _, other := range api.podsByNode[node].scan() {
				cpu, mem := podRequests(other.Spec)
				cpuFree -= cpu
				memFree -= mem
			}
			if cpuFree < needCPU || memFree < needMem {
				unschedulable[name] = true
				return
			}
			delete(unschedulable, name)
			pod = pod.clone()
			pod.NodeName = node
			pay(bp, api)
			api.Pods.Update(pod)
		})
	}
	w := watch(api, KindPod)
	api.k.Go("scheduler:"+cfg.Name, func(p *sim.Proc) {
		for {
			ev := w.recv(p)
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

// runSchedulerWith is runScheduler with the cycle the test chose.
func runSchedulerWith(api *APIServer, cfg SchedulerConfig, cycle time.Duration, node string) {
	runScheduler(api, cfg, node).cycle = cycle
}

// planes are the two control planes under comparison: the process oracle
// first, the callbacks second.
var planes = []struct {
	deployments func(*APIServer)
	replicaSets func(*APIServer)
	scheduler   func(*APIServer, SchedulerConfig, time.Duration, string)
}{
	{runDeploymentControllerLoop, runReplicaSetControllerLoop, runSchedulerLoop},
	{RunDeploymentController, RunReplicaSetController, runSchedulerWith},
}

// apiWrite is one write to the API server, as a subscriber to every kind saw
// it: each delivery comes the watch latency after its write, in write order.
type apiWrite struct {
	At      sim.Time
	Type    EventType
	Kind    Kind
	Name    string
	Version uint64 // the snapshot's ResourceVersion: the last one for a delete
	What    string // what the control plane decides: replicas, binding, phase
}

func (w apiWrite) String() string {
	return fmt.Sprintf("%v %v %s %s v%d %s", w.At, w.Type, w.Kind, w.Name, w.Version, w.What)
}

func recordWrites(api *APIServer) *[]apiWrite {
	var log []apiWrite
	for _, kind := range []Kind{KindDeployment, KindReplicaSet, KindPod, KindService} {
		api.Subscribe(kind, func(ev Event) {
			w := apiWrite{At: api.k.Now() - api.t.watch, Type: ev.Type, Kind: ev.Kind, Name: ev.Name}
			switch o := ev.Object.(type) {
			case *Deployment:
				w.Version, w.What = o.ResourceVersion, fmt.Sprint("replicas=", o.Replicas)
			case *ReplicaSet:
				w.Version, w.What = o.ResourceVersion, fmt.Sprint("replicas=", o.Replicas)
			case *Pod:
				w.Version, w.What = o.ResourceVersion, fmt.Sprintf("node=%s phase=%s", o.NodeName, o.Phase)
			case *Service:
				w.Version = o.ResourceVersion
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
// DESIGN §6 Add-ordering case), scale changes that land on active keys,
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
							api := NewAPIServer(k)
							api.t.request, api.t.watch, api.t.reconcile, api.t.workers = lat, watch, delay, workers
							planes[plane].deployments(api)
							planes[plane].replicaSets(api)
							log := recordWrites(api)
							name := func(d int) string { return fmt.Sprintf("d%02d", d) }
							for _, o := range ops {
								o := o
								k.At(o.at, func() {
									switch o.kind {
									case 0: // create, or scale
										if d, err := api.Deployments.Get(name(o.d)); err == nil {
											d = d.clone()
											d.Replicas = o.value
											api.Deployments.Update(d)
										} else {
											api.Deployments.Create(&Deployment{Name: name(o.d), Replicas: o.value,
												Template: PodTemplate{Labels: map[string]string{"app": name(o.d)}}})
										}
									case 1: // delete the Deployment: cascade
										api.Deployments.Delete(name(o.d))
									case 2: // delete one pod: the ReplicaSet replaces it
										if pods := api.ListPodsByOwner(rsName(name(o.d))); len(pods) > 0 {
											api.Pods.Delete(pods[o.value%len(pods)].Name)
										}
									case 3: // delete the ReplicaSet: its pods go
										api.ReplicaSets.Delete(rsName(name(o.d)))
									case 4: // scale to zero
										if d, err := api.Deployments.Get(name(o.d)); err == nil {
											d = d.clone()
											d.Replicas = 0
											api.Deployments.Update(d)
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
// make every write and every binding of the process loop with its bind
// processes, at the same nanosecond and in the same order. Two schedulers
// (the default one and a second, LocalSched-style, with half its cycle)
// share the node; pods that do not fit park and are retried after a delete;
// BindingDelay below, at and above the cycle; request and watch latency 0 and
// > 0, on a millisecond grid.
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
	for seed := int64(1); seed <= 3; seed++ {
		ops := script(seed)
		for _, cycle := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
			for _, binding := range []time.Duration{5 * time.Millisecond, cycle, 70 * time.Millisecond} {
				for _, lat := range []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond} {
					for _, watch := range []time.Duration{0, 10 * time.Millisecond} {
						what := fmt.Sprintf("seed %d cycle %v binding %v latency %v watch %v", seed, cycle, binding, lat, watch)
						compareWorlds(t, what, func(plane int) ([]apiWrite, any) {
							k := sim.New(1)
							api := NewAPIServer(k)
							api.t.request, api.t.watch = lat, watch
							api.t.nodeCPU, api.t.nodeMem = 4000, 1<<30
							planes[plane].scheduler(api, SchedulerConfig{Name: DefaultSchedulerName, BindingDelay: binding}, cycle, "n1")
							planes[plane].scheduler(api, SchedulerConfig{Name: "local", BindingDelay: binding}, cycle/2, "n1")
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
										api.CreatePod(&Pod{Name: name(o.pod), SchedulerName: sched,
											Spec: PodTemplate{Containers: []spec.ContainerSpec{{Name: "c", CPUMillis: o.cpu}}}})
									case 2:
										api.Pods.Delete(name(o.pod))
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

// TestControlPlaneMatchesProcLoops runs whole clusters — the node's real
// kubelet, the default and a local scheduler — under Cluster.Start and under
// the process control plane, through deployments on both schedulers, a pod
// deleted out from under its ReplicaSet (replaced, bound and started again),
// a scale-down and a removal, and compares every API write and every
// container's ready instant and final state.
func TestControlPlaneMatchesProcLoops(t *testing.T) {
	local := SchedulerConfig{Name: "edge-local-sched", BindingDelay: 100 * time.Millisecond}
	for _, mutate := range []func(*calibration){
		func(*calibration) {},
		func(tm *calibration) { tm.request = 0 },
		func(tm *calibration) { tm.workers = 1 },
	} {
		tm := calibrated
		mutate(&tm)
		compareWorlds(t, fmt.Sprintf("%+v", tm), func(plane int) ([]apiWrite, any) {
			k := sim.New(1)
			n := simnet.NewNetwork(k)
			h := simnet.NewHost(n, "n1", "10.0.1.1")
			regHost := simnet.NewHost(n, "reg", "10.0.1.10")
			r := simnet.NewRouter(n, "r")
			_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
			_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
			r.AddRoute(h.IP(), hp)
			r.AddRoute(regHost.IP(), rp)
			srv := registry.NewServer(regHost, registry.ServerConfig{})
			srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
			res := registry.NewResolver()
			res.AddPrefix("", regHost.IP())
			rt := container.NewRuntime(h, registry.NewClient(h, res))
			beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
			kc := New("k8s", k, Config{LocalSched: &local}, "n1", rt, beh)
			kc.api.t = tm
			if plane == 1 {
				kc.Start()
			} else {
				pl := planes[0]
				kc.started = true
				pl.deployments(kc.api)
				pl.replicaSets(kc.api)
				pl.scheduler(kc.api, SchedulerConfig{Name: DefaultSchedulerName, BindingDelay: tm.binding}, tm.cycle, "n1")
				pl.scheduler(kc.api, local, tm.cycle, "n1")
				RunKubelet(kc.api, "n1", rt, beh)
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
					p.Sleep(20*time.Second - p.Now())
					if i == 1 {
						pay(p, kc.api)
						pods := kc.api.ListPods(map[string]string{"app": a.UniqueName})
						pay(p, kc.api)
						kc.api.Pods.Delete(pods[0].Name)
					}
					p.Sleep(90*time.Second - p.Now())
					switch i {
					case 2:
						kc.ScaleDown(p, a.UniqueName)
					case 3:
						kc.Remove(p, a.UniqueName)
					}
				})
			}
			k.RunUntil(3 * time.Minute)
			var ctrs []string
			for _, ctr := range rt.List(nil) {
				ctrs = append(ctrs, fmt.Sprintf("%s ready %v %v", ctr.Name(), ctr.ReadyAt(), ctr.State()))
			}
			return *log, ctrs
		})
	}
}
