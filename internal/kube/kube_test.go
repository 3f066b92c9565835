package kube

import (
	"errors"
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

const nginxYAML = `
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
`

type rig struct {
	k      *sim.Kernel
	node   *simnet.Host
	client *simnet.Host
	kc     *Cluster
	rt     *container.Runtime
	srv    *registry.Server
}

// newRig builds a one-node cluster; mutate, if set, edits it before it
// starts.
func newRig(t *testing.T, mutate func(*Cluster)) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	node := simnet.NewHost(n, "egs", "10.0.0.1")
	cli := simnet.NewHost(n, "client", "10.0.0.2")
	regHost := simnet.NewHost(n, "hub", "198.51.100.1")
	r := simnet.NewRouter(n, "r")
	_, a := node.AttachTo(r, simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	_, b := cli.AttachTo(r, simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 1 * simnet.Gbps})
	_, cport := regHost.AttachTo(r, simnet.LinkConfig{Latency: 15 * time.Millisecond, Bandwidth: 400 * simnet.Mbps})
	r.AddRoute(node.IP(), a)
	r.AddRoute(cli.IP(), b)
	r.AddRoute(regHost.IP(), cport)

	srv := registry.NewServer(regHost, registry.ServerConfig{BlobLatency: 50 * time.Millisecond})
	srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{
		{Digest: "nginx-0", Size: 74 * simnet.MiB},
		{Digest: "nginx-1", Size: 61 * simnet.MiB},
	}})
	res := registry.NewResolver()
	res.AddPrefix("", regHost.IP())
	images := registry.NewClient(node, res)
	rt := container.NewRuntime(node, images)
	behaviors := cluster.StaticBehaviors{
		"nginx:1.23.2": {InitDelay: 60 * time.Millisecond, ServiceTime: 300 * time.Microsecond, RespSize: simnet.KiB},
	}
	kc := New("egs-k8s", k, Config{}, "egs", rt, behaviors)
	if mutate != nil {
		mutate(kc)
	}
	kc.Start()
	return &rig{k: k, node: node, client: cli, kc: kc, rt: rt, srv: srv}
}

// newBareAPIServer returns an API server whose requests, watch deliveries and
// component timings take no time.
func newBareAPIServer(k *sim.Kernel) *APIServer {
	api := NewAPIServer(k)
	api.t = calibration{}
	return api
}

func annotated(t *testing.T, domain string) *spec.Annotated {
	t.Helper()
	def, err := spec.Parse(nginxYAML)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: domain, VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// probeUntilOpen requests until answered and returns the elapsed time.
func probeUntilOpen(p *sim.Proc, cli *simnet.Host, inst cluster.Instance, every time.Duration) time.Duration {
	start := p.Now()
	for {
		if _, err := cli.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0); err == nil {
			return p.Now() - start
		}
		p.Sleep(every)
	}
}

func TestDeploymentChainCreatesRunningPod(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	var inst cluster.Instance
	var wait time.Duration
	rg.k.Go("driver", func(p *sim.Proc) {
		if err := rg.kc.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		if err := rg.kc.Create(p, a); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if rg.kc.Running(a.UniqueName) {
			t.Error("running right after create (replicas should be 0)")
		}
		start := p.Now()
		var err error
		inst, err = rg.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		wait = probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		_ = start
		// The full chain ran: a ReplicaSet and a Pod exist.
		if rss := rg.kc.API().ReplicaSets.List(); len(rss) != 1 {
			t.Errorf("replicasets = %d, want 1", len(rss))
		}
		pods := rg.kc.API().ListPods(map[string]string{"app": a.UniqueName})
		if len(pods) != 1 || pods[0].Phase != PodRunning || pods[0].NodeName != "egs" {
			t.Errorf("pods = %+v", pods)
		}
	})
	rg.k.RunUntil(10 * time.Minute)
	if inst.Port < 30000 || inst.Addr != "10.0.0.1" {
		t.Fatalf("instance = %+v", inst)
	}
	// The orchestrator chain costs seconds (the paper's ~3 s), far more
	// than Docker's sub-second path.
	if wait < 500*time.Millisecond || wait > 5*time.Second {
		t.Fatalf("readiness wait after ScaleUp = %v, want O(seconds)", wait)
	}
}

func TestScaleUpSlowerThanDockerPath(t *testing.T) {
	// End-to-end scale-up (API to port open) must exceed 1.5s with default
	// control-plane latencies: this is the paper's central contrast.
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	var total time.Duration
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		p.Sleep(time.Second) // let create settle
		start := p.Now()
		inst, err := rg.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		total = p.Now() - start
	})
	rg.k.RunUntil(10 * time.Minute)
	if total < 1500*time.Millisecond || total > 4500*time.Millisecond {
		t.Fatalf("k8s scale-up to ready = %v, want ~2-3.5s", total)
	}
}

func TestEndpointAppearsWhenPodRuns(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		if _, ok := rg.kc.Endpoint(a.UniqueName); ok {
			t.Error("endpoint before scale up")
		}
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		got, ok := rg.kc.Endpoint(a.UniqueName)
		if !ok || got.Port != inst.Port || got.Addr != inst.Addr {
			t.Errorf("endpoint = %+v ok=%v, want %+v", got, ok, inst)
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestScaleDownStopsPodAndClosesPort(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	var dialErr error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		if err := rg.kc.ScaleDown(p, a.UniqueName); err != nil {
			t.Errorf("scaledown: %v", err)
		}
		p.Sleep(5 * time.Second) // let controllers tear the pod down
		pods := rg.kc.API().ListPods(map[string]string{"app": a.UniqueName})
		if len(pods) != 0 {
			t.Errorf("pods after scaledown = %d, want 0", len(pods))
		}
		if _, ok := rg.kc.Endpoint(a.UniqueName); ok {
			t.Error("endpoint after scaledown")
		}
		_, dialErr = rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0)
	})
	rg.k.RunUntil(10 * time.Minute)
	if !errors.Is(dialErr, simnet.ErrConnRefused) {
		t.Fatalf("dial after scaledown = %v, want refused", dialErr)
	}
}

func TestRemoveCascades(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		if err := rg.kc.Remove(p, a.UniqueName); err != nil {
			t.Errorf("remove: %v", err)
		}
		p.Sleep(5 * time.Second)
		if len(rg.kc.API().Deployments.List()) != 0 {
			t.Error("deployment survived remove")
		}
		if len(rg.kc.API().ReplicaSets.List()) != 0 {
			t.Error("replicaset survived remove")
		}
		if len(rg.kc.API().ListPods(nil)) != 0 {
			t.Error("pods survived remove")
		}
		if got := rg.rt.List(nil); len(got) != 0 {
			t.Errorf("containers survived remove: %d", len(got))
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestScaleUpIdempotent(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		i1, _ := rg.kc.ScaleUp(p, a.UniqueName)
		probeUntilOpen(p, rg.client, i1, 100*time.Millisecond)
		i2, err := rg.kc.ScaleUp(p, a.UniqueName)
		if err != nil || i2.Port != i1.Port {
			t.Errorf("second scaleup = %+v err=%v", i2, err)
		}
		pods := rg.kc.API().ListPods(map[string]string{"app": a.UniqueName})
		if len(pods) != 1 {
			t.Errorf("pods = %d, want 1 (no duplicate scale-out)", len(pods))
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

// TestCustomLocalScheduler: a pod annotated with a Local Scheduler's name is
// bound by that scheduler, which the default one leaves it to.
func TestCustomLocalScheduler(t *testing.T) {
	rg := newRig(t, func(c *Cluster) {
		c.cfg.LocalSched = &SchedulerConfig{Name: "edge-local-sched", BindingDelay: 100 * time.Millisecond}
	})
	def, _ := spec.Parse(nginxYAML)
	a, _ := spec.Annotate(def, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80},
		spec.Options{SchedulerName: "edge-local-sched"})
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		inst, err := rg.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
	})
	rg.k.RunUntil(10 * time.Minute)
	pods := rg.kc.API().ListPods(map[string]string{"app": a.UniqueName})
	if len(pods) != 1 || pods[0].SchedulerName != "edge-local-sched" || pods[0].NodeName == "" {
		t.Fatalf("pods = %+v, want one bound by the custom Local Scheduler", pods)
	}
}

func TestKubeletResyncBackstop(t *testing.T) {
	// Disable watch-driven startup by making watch latency enormous; the
	// periodic resync must still start the pod.
	rg := newRig(t, func(c *Cluster) {
		c.api.t.watch = 30 * time.Millisecond
		c.api.t.sync = 500 * time.Millisecond
	})
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestErrorsOnMissingService(t *testing.T) {
	rg := newRig(t, nil)
	rg.k.Go("driver", func(p *sim.Proc) {
		if _, err := rg.kc.ScaleUp(p, "ghost"); !errors.Is(err, cluster.ErrNotCreated) {
			t.Errorf("scaleup err = %v", err)
		}
		if err := rg.kc.ScaleDown(p, "ghost"); !errors.Is(err, cluster.ErrNotCreated) {
			t.Errorf("scaledown err = %v", err)
		}
		if err := rg.kc.Remove(p, "ghost"); !errors.Is(err, cluster.ErrUnknownService) {
			t.Errorf("remove err = %v", err)
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestAPIServerWatchAndVersions(t *testing.T) {
	k := sim.New(1)
	api := NewAPIServer(k)
	api.t.request, api.t.watch = 0, 10*time.Millisecond
	var events []Event
	api.Subscribe(KindDeployment, func(ev Event) { events = append(events, ev) })
	k.Go("writer", func(p *sim.Proc) {
		d := &Deployment{Name: "d1", Replicas: 0}
		api.Deployments.Create(d)
		d.Replicas = 1
		api.Deployments.Update(d)
		api.Deployments.Delete("d1")
	})
	k.Run()
	if len(events) != 3 || events[0].Type != Added || events[1].Type != Modified || events[2].Type != Deleted {
		t.Fatalf("events = %+v", events)
	}
	// Deleted event carries the last object state.
	last := events[2].Object.(*Deployment)
	if last.Replicas != 1 {
		t.Fatalf("deleted snapshot = %+v", last)
	}
	v1 := events[0].Object.(*Deployment).ResourceVersion
	v2 := events[1].Object.(*Deployment).ResourceVersion
	if v2 <= v1 {
		t.Fatalf("resource versions not increasing: %d then %d", v1, v2)
	}
}

// copyCase drives one kind through the store's snapshot contract: Create
// copies the caller's struct in; Get, List and watch events hand out the
// stored snapshot itself; Update stores the caller's private copy (a clone of
// what it read) as the next snapshot; and no write changes a snapshot a
// reader already holds. Writers set fields and never write into a map or
// slice, which snapshots and their clones share.
type copyCase[T object[T]] struct {
	kind   Kind
	obj    T          // the object to create
	mutate func(T)    // sets every field, replacing maps and slices
	create func(T)    // Create
	update func(T)    // Update, nil if the kind has none
	get    func() T   // Get
	list   func() []T // List
	stored func() T   // the stored snapshot itself
}

func (c copyCase[T]) run(t *testing.T, k *sim.Kernel, api *APIServer) {
	var events []Event
	api.Subscribe(c.kind, func(ev Event) { events = append(events, ev) })
	k.Go("copy:"+string(c.kind), func(p *sim.Proc) {
		stored := c.stored
		c.create(c.obj)
		want := stored().clone()
		c.mutate(c.obj)
		if got := stored(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mutating the object after Create changed the store: %+v, want %+v", c.kind, got, want)
		}

		got := c.get()
		if got != stored() {
			t.Errorf("%s: Get returned a copy, want the stored snapshot", c.kind)
		}
		listed := c.list()
		if len(listed) != 1 || listed[0] != stored() {
			t.Errorf("%s: List = %v, want the stored snapshot itself", c.kind, listed)
			return
		}
		if c.update != nil {
			private := got.clone()
			c.mutate(private)
			c.update(private)
			if stored() != private {
				t.Errorf("%s: Update stored a copy, want the caller's private copy itself", c.kind)
			}
			if reflect.DeepEqual(stored(), want) {
				t.Errorf("%s: Update stored nothing new", c.kind)
			}
		}
		p.Sleep(time.Second) // let the watch events arrive
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a snapshot changed under its Get reader: %+v, want %+v", c.kind, got, want)
		}
		if !reflect.DeepEqual(listed[0], want) {
			t.Errorf("%s: a snapshot changed under its List reader: %+v, want %+v", c.kind, listed[0], want)
		}
		if len(events) == 0 {
			t.Errorf("%s: no watch events", c.kind)
			return
		}
		if first := events[0].Object.(T); first != got || !reflect.DeepEqual(first, want) {
			t.Errorf("%s: first event carries %+v, want the snapshot Get returned, as created: %+v", c.kind, first, want)
		}
		if last := events[len(events)-1].Object.(T); last != stored() {
			t.Errorf("%s: last event does not carry the stored snapshot", c.kind)
		}
	})
}

func TestAPIServerCopySemantics(t *testing.T) {
	k := sim.New(1)
	api := newBareAPIServer(k)
	labels := func() map[string]string { return map[string]string{"a": "1"} }
	mutated := func() map[string]string { return map[string]string{"a": "mutated"} }
	template := func() PodTemplate {
		return PodTemplate{Labels: labels(), Containers: []spec.ContainerSpec{{Name: "c", Image: "img"}}}
	}
	mutateTemplate := func(pt *PodTemplate) {
		*pt = PodTemplate{Labels: mutated(), Containers: []spec.ContainerSpec{{Name: "c", Image: "mutated"}}}
	}
	copyCase[*Deployment]{
		kind: KindDeployment,
		obj:  &Deployment{Name: "d1", Template: template()},
		mutate: func(d *Deployment) {
			mutateTemplate(&d.Template)
		},
		create: func(d *Deployment) { api.Deployments.Create(d) },
		update: func(d *Deployment) { api.Deployments.Update(d) },
		get:    func() *Deployment { d, _ := api.Deployments.Get("d1"); return d },
		list:   func() []*Deployment { return api.Deployments.List() },
		stored: func() *Deployment { return api.Deployments.byName["d1"] },
	}.run(t, k, api)
	copyCase[*ReplicaSet]{
		kind: KindReplicaSet,
		obj:  &ReplicaSet{Name: "rs1", Template: template()},
		mutate: func(rs *ReplicaSet) {
			mutateTemplate(&rs.Template)
		},
		create: func(rs *ReplicaSet) { api.ReplicaSets.Create(rs) },
		update: func(rs *ReplicaSet) { api.ReplicaSets.Update(rs) },
		get:    func() *ReplicaSet { rs, _ := api.ReplicaSets.Get("rs1"); return rs },
		list:   func() []*ReplicaSet { return api.ReplicaSets.List() },
		stored: func() *ReplicaSet { return api.ReplicaSets.byName["rs1"] },
	}.run(t, k, api)
	copyCase[*Pod]{
		kind: KindPod,
		obj:  &Pod{Name: "p1", Owner: "rs1", Labels: labels(), Spec: template()},
		mutate: func(pod *Pod) {
			pod.Labels = mutated()
			mutateTemplate(&pod.Spec)
		},
		create: func(pod *Pod) {
			if created, _ := api.CreatePod(pod); created != api.Pods.byName["p1"] {
				t.Error("CreatePod returned a copy, want the stored snapshot")
			}
		},
		update: func(pod *Pod) { api.Pods.Update(pod) },
		get:    func() *Pod { pod, _ := api.Pods.Get("p1"); return pod },
		list:   func() []*Pod { return api.ListPods(map[string]string{"a": "1"}) },
		stored: func() *Pod { return api.Pods.byName["p1"] },
	}.run(t, k, api)
	copyCase[*Service]{
		kind: KindService,
		obj:  &Service{Name: "s1", Selector: labels()},
		mutate: func(s *Service) {
			s.Selector = mutated()
		},
		create: func(s *Service) { api.Services.Create(s) },
		get:    func() *Service { s, _ := api.Services.Get("s1"); return s },
		list:   func() []*Service { return api.Services.List() },
		stored: func() *Service { return api.Services.byName["s1"] },
	}.run(t, k, api)
	k.Run()
}

// TestPodCreateFillsTheCopy: a pod's generated name and default phase are
// written on the stored copy, never into the caller's object, and both create
// calls (CreatePod, Pods.Create) fill them in.
func TestPodCreateFillsTheCopy(t *testing.T) {
	api := newBareAPIServer(sim.New(1))
	pod := &Pod{Owner: "rs1"}
	got, err := api.CreatePod(pod)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Name != "" || pod.Phase != "" {
		t.Errorf("caller's pod = %q/%q after CreatePod, want it untouched", pod.Name, pod.Phase)
	}
	if got.Name != "rs1-00001" || got.Phase != PodPending {
		t.Errorf("CreatePod returned %q/%q, want rs1-00001/%s", got.Name, got.Phase, PodPending)
	}
	if err := api.Pods.Create(pod); err != nil {
		t.Fatal(err)
	}
	if stored, err := api.Pods.Get("rs1-00002"); err != nil || stored.Phase != PodPending {
		t.Errorf("Pods.Create stored %+v, %v; want rs1-00002 %s", stored, err, PodPending)
	}
	if pod.Name != "" {
		t.Errorf("caller's pod named %q after Pods.Create, want it untouched", pod.Name)
	}
}

func TestMatchLabels(t *testing.T) {
	if !MatchLabels(map[string]string{"a": "1", "b": "2"}, map[string]string{"a": "1"}) {
		t.Error("subset did not match")
	}
	if MatchLabels(map[string]string{"a": "1"}, map[string]string{"a": "2"}) {
		t.Error("mismatch matched")
	}
	if !MatchLabels(nil, nil) {
		t.Error("empty selector must match")
	}
}

// runningPods counts the service's pods in phase Running.
func runningPods(kc *Cluster, service string) int {
	n := 0
	for _, pod := range kc.API().ListPods(map[string]string{"app": service}) {
		if pod.Phase == PodRunning {
			n++
		}
	}
	return n
}

// TestEndpointsControllerTracksReadyPods: Cluster.Endpoint, which derives a
// Service's backend from its running pods on every call, is the endpoints
// controller — none before scale-up and while the pod starts, the one pod
// once it runs, none again after scale-down.
func TestEndpointsControllerTracksReadyPods(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		p.Sleep(2 * time.Second)
		if ep, ok := rg.kc.Endpoint(a.UniqueName); ok {
			t.Errorf("endpoint before scale-up = %+v", ep)
		}
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		if ep, ok := rg.kc.Endpoint(a.UniqueName); ok {
			t.Errorf("endpoint of a pod that is bound but not started = %+v", ep)
		}
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		if ep, ok := rg.kc.Endpoint(a.UniqueName); !ok || ep != inst || runningPods(rg.kc, a.UniqueName) != 1 {
			t.Fatalf("endpoint after scale-up = %+v %v with %d pods running, want %+v of one", ep, ok, runningPods(rg.kc, a.UniqueName), inst)
		}
		// Scale down: the endpoint goes.
		rg.kc.ScaleDown(p, a.UniqueName)
		p.Sleep(10 * time.Second)
		if ep, ok := rg.kc.Endpoint(a.UniqueName); ok {
			t.Errorf("endpoint after scale-down = %+v", ep)
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestScaleDownDuringPodStartup(t *testing.T) {
	// Scale up, then scale down before the pod finishes starting: the
	// kubelet must tear everything down once the deletion propagates.
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		p.Sleep(rg.kc.api.t.request)
		d, _ := rg.kc.API().Deployments.Get(a.UniqueName)
		d = d.clone()
		d.Replicas = 1
		p.Sleep(rg.kc.api.t.request)
		rg.kc.API().Deployments.Update(d)
		p.Sleep(1200 * time.Millisecond) // pod bound, kubelet mid-startup
		if err := rg.kc.ScaleDown(p, a.UniqueName); err != nil {
			t.Errorf("scaledown: %v", err)
		}
		p.Sleep(30 * time.Second)
		if pods := rg.kc.API().ListPods(map[string]string{"app": a.UniqueName}); len(pods) != 0 {
			t.Errorf("pods after mid-start scaledown = %d", len(pods))
		}
		if got := rg.rt.List(nil); len(got) != 0 {
			t.Errorf("containers after mid-start scaledown = %d", len(got))
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

// run serves q with process as the body of every pass, each on a process of
// its own: the proc-bodied form of serve the work-queue tests drive.
func (q *workQueue) run(name string, workers int, process func(p *sim.Proc, key string)) {
	api := newBareAPIServer(q.k)
	api.t.workers = workers
	q.serve(api, func(w *worker) sim.Step[worker] {
		q.k.Go(name, func(p *sim.Proc) {
			process(p, w.key)
			w.done()
		})
		return nil
	})
}

func TestWorkQueueCoalescesAndSerializes(t *testing.T) {
	k := sim.New(1)
	q := newWorkQueue(k)
	var active int
	var maxActive int
	var processed []string
	q.run("w", 3, func(p *sim.Proc, key string) {
		active++
		if active > maxActive {
			maxActive = active
		}
		p.Sleep(10 * time.Millisecond)
		processed = append(processed, key)
		active--
	})
	// Enqueue the same key many times while it is pending: coalesce to 1.
	for i := 0; i < 5; i++ {
		q.Add("a")
	}
	q.Add("b")
	k.RunUntil(time.Second)
	countA := 0
	for _, kk := range processed {
		if kk == "a" {
			countA++
		}
	}
	if countA != 1 {
		t.Fatalf("key a processed %d times, want 1 (coalesced)", countA)
	}
	// Enqueue a key while it is actively processed: reprocess once after.
	q.Add("c")
	k.After(5*time.Millisecond, func() { q.Add("c") })
	k.RunUntil(2 * time.Second)
	countC := 0
	for _, kk := range processed {
		if kk == "c" {
			countC++
		}
	}
	if countC != 2 {
		t.Fatalf("key c processed %d times, want 2 (requeued while active)", countC)
	}
}

const resourceYAML = `
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        resources:
          requests:
            cpu: 4
            memory: 8Gi
`

func TestUnschedulablePodWaitsForCapacity(t *testing.T) {
	// One node with 4 cores; two pods asking 3 cores each: the second
	// stays Pending until the first is deleted, then binds.
	rg := newRig(t, func(c *Cluster) { c.api.t.nodeCPU = 4000 })
	k, kc := rg.k, rg.kc

	mk := func(domain string) *spec.Annotated {
		def, _ := spec.Parse(`
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        resources:
          requests:
            cpu: 3
`)
		a, _ := spec.Annotate(def, spec.Registration{Domain: domain, VIP: simnet.Addr("203.0.113." + domain[:1]), Port: 80}, spec.Options{})
		return a
	}
	a1 := mk("1a.example.com")
	a2 := mk("2b.example.com")
	k.Go("driver", func(p *sim.Proc) {
		kc.Pull(p, a1)
		kc.Create(p, a1)
		kc.Create(p, a2)
		if _, err := kc.ScaleUp(p, a1.UniqueName); err != nil {
			t.Errorf("scaleup a1: %v", err)
			return
		}
		// a2 cannot fit: its pod must stay Pending unbound.
		p.Sleep(kc.api.t.request)
		d, _ := kc.API().Deployments.Get(a2.UniqueName)
		d = d.clone()
		d.Replicas = 1
		p.Sleep(kc.api.t.request)
		kc.API().Deployments.Update(d)
		p.Sleep(10 * time.Second)
		pods := kc.API().ListPods(map[string]string{"app": a2.UniqueName})
		if len(pods) != 1 || pods[0].NodeName != "" {
			t.Errorf("a2 pod = %+v, want unbound Pending", pods)
			return
		}
		// Free the capacity: a2 binds.
		kc.ScaleDown(p, a1.UniqueName)
		p.Sleep(30 * time.Second)
		pods = kc.API().ListPods(map[string]string{"app": a2.UniqueName})
		if len(pods) != 1 || pods[0].NodeName == "" {
			t.Errorf("a2 pod after capacity freed = %+v, want bound", pods)
		}
	})
	k.RunUntil(10 * time.Minute)
}

// TestSchedulerRetriesParkedPodsInNameOrder: three pods park behind one that
// fills the node; deleting it frees room for all three, and the scheduler
// retries them one serial cycle each — so the retry order is the bind order.
// It must not depend on Go's map iteration: every kernel binds them by name.
func TestSchedulerRetriesParkedPodsInNameOrder(t *testing.T) {
	want := []string{"parked-a", "parked-b", "parked-c"}
	for run := 0; run < 20; run++ {
		k := sim.New(1)
		api := newBareAPIServer(k)
		api.t.cycle = cycleDelay
		api.t.nodeCPU, api.t.nodeMem = 3000, 1<<30
		runScheduler(api, SchedulerConfig{Name: DefaultSchedulerName}, "node")
		var bound []string
		api.Subscribe(KindPod, func(ev Event) {
			if pod := ev.Object.(*Pod); ev.Type == Modified && pod.NodeName != "" {
				bound = append(bound, pod.Name)
			}
		})
		pod := func(name string, cpu int64) *Pod {
			return &Pod{Name: name, Spec: PodTemplate{Containers: []spec.ContainerSpec{{Name: "c", CPUMillis: cpu}}}}
		}
		k.Go("driver", func(p *sim.Proc) {
			api.CreatePod(pod("blocker", 3000))
			p.Sleep(time.Second)
			for _, name := range []string{"parked-c", "parked-a", "parked-b"} {
				api.CreatePod(pod(name, 1000))
			}
			p.Sleep(10 * time.Second)
			if len(bound) != 1 {
				t.Errorf("run %d: bound %v while the blocker holds the node, want the blocker alone", run, bound)
			}
			bound = nil
			api.Pods.Delete("blocker")
		})
		k.RunUntil(time.Minute)
		if !reflect.DeepEqual(bound, want) {
			t.Fatalf("run %d: bind order after capacity freed = %v, want %v", run, bound, want)
		}
	}
}

// forget removes a pod from the store and its indexes without a watch event:
// to the kubelet and the controllers it is a missed delete.
func forget(api *APIServer, name string) {
	s := api.Pods
	old := s.byName[name]
	delete(s.byName, name)
	s.sorted.remove(name)
	s.reindex(old, nil)
}

// TestKubeletTearsDownOrphansInNameOrder: pods whose delete the kubelet
// missed are orphans on it, and its resync forgets them, so that their
// workers stop their containers in one instant, in the order the resync
// forgot them. It must not depend on Go's map iteration: every kernel stops
// them by pod name. The kernel is stepped one event at a time, so the order
// within the instant shows.
func TestKubeletTearsDownOrphansInNameOrder(t *testing.T) {
	type stop struct {
		container string
		at        sim.Time
	}
	var first []stop
	for run := 0; run < 20; run++ {
		rg := newRig(t, nil)
		var services []*spec.Annotated
		for _, domain := range []string{"a.example.com", "b.example.com", "c.example.com"} {
			services = append(services, annotated(t, domain))
		}
		var stops []stop
		var running []*container.Container
		rg.k.Go("driver", func(p *sim.Proc) {
			for _, a := range services {
				rg.kc.Pull(p, a)
				rg.kc.Create(p, a)
				inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
				probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
			}
			running = rg.rt.List(nil)
			for _, pod := range rg.kc.api.podsByNode["egs"].view() {
				forget(rg.kc.api, pod.Name)
			}
		})
		stopped := map[string]bool{}
		for (running == nil || len(stops) < len(running)) && rg.k.Now() < 2*time.Minute && rg.k.Step() {
			for _, ctr := range running {
				if ctr.State() != container.StateRunning && !stopped[ctr.Name()] {
					stopped[ctr.Name()] = true
					stops = append(stops, stop{ctr.Name(), rg.k.Now()})
				}
			}
		}
		rg.k.Close()
		if len(stops) != len(services) {
			t.Fatalf("run %d: %d containers stopped after their pods were forgotten, want %d", run, len(stops), len(services))
		}
		if !sort.SliceIsSorted(stops, func(i, j int) bool { return stops[i].container < stops[j].container }) {
			t.Fatalf("run %d: stopped %v, want by pod name", run, stops)
		}
		if run == 0 {
			first = stops
		} else if !reflect.DeepEqual(stops, first) {
			t.Fatalf("run %d stopped %v, run 0 %v", run, stops, first)
		}
	}
}

// TestPodTeardownsOverlap deletes two running pods in one instant. Each pod's
// worker tears its own pod down, so both containers stop one Stop delay after
// the kubelet hears of the deletes, neither waiting for the other.
func TestPodTeardownsOverlap(t *testing.T) {
	rg := newRig(t, nil)
	api := rg.kc.API()
	rg.k.Go("deploy", func(p *sim.Proc) {
		for _, domain := range []string{"a.example.com", "b.example.com"} {
			a := annotated(t, domain)
			if err := rg.kc.Pull(p, a); err != nil {
				t.Errorf("pull: %v", err)
			}
			rg.kc.Create(p, a)
			if _, err := rg.kc.ScaleUp(p, a.UniqueName); err != nil {
				t.Errorf("scale-up: %v", err)
			}
		}
	})
	rg.k.RunUntil(time.Minute)
	pods := api.Pods.List()
	ctrs := rg.rt.List(nil)
	if len(pods) != 2 || len(ctrs) != 2 || pods[0].Phase != PodRunning || pods[1].Phase != PodRunning {
		t.Fatalf("pods %+v, containers %v: want two running pods of one container each", pods, ctrs)
	}
	stopped := rg.k.Now() + api.t.watch + rg.rt.Delays().Stop
	for _, pod := range pods {
		api.Pods.Delete(pod.Name)
	}
	for _, want := range []container.State{container.StateRunning, container.StateStopped} {
		at := stopped
		if want == container.StateRunning {
			at--
		}
		rg.k.RunUntil(at)
		for _, ctr := range ctrs {
			if ctr.State() != want {
				t.Errorf("at %v: %s is %v, want %v", at, ctr.Name(), ctr.State(), want)
			}
		}
	}
}

// TestResyncForgetsDeleteInFlight deletes a running pod half a watch latency
// before a resync. The delete is a departure the kubelet has not heard yet,
// so that resync forgets the pod: its container stops one Stop delay after
// the resync instant, not after the watch event.
func TestResyncForgetsDeleteInFlight(t *testing.T) {
	rg := newRig(t, nil)
	api := rg.kc.API()
	rg.k.Go("deploy", func(p *sim.Proc) {
		a := annotated(t, "web.example.com")
		if err := rg.kc.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
		}
		rg.kc.Create(p, a)
		if _, err := rg.kc.ScaleUp(p, a.UniqueName); err != nil {
			t.Errorf("scale-up: %v", err)
		}
	})
	rg.k.RunUntil(time.Minute)
	pods, ctrs := api.Pods.List(), rg.rt.List(nil)
	if len(pods) != 1 || len(ctrs) != 1 || pods[0].Phase != PodRunning {
		t.Fatalf("pods %+v, containers %v: want one running pod of one container", pods, ctrs)
	}
	// The kubelet starts with the cluster, at 0; each resync sleeps the sync
	// period and then pays one request.
	period := api.t.sync + api.t.request
	resync := (rg.k.Now() + api.t.watch + period - 1) / period * period
	rg.k.RunUntil(resync - api.t.watch/2)
	api.Pods.Delete(pods[0].Name)
	stopped := resync + rg.rt.Delays().Stop
	rg.k.RunUntil(stopped - 1)
	if ctrs[0].State() != container.StateRunning {
		t.Fatalf("at %v: %s is %v, want still running", rg.k.Now(), ctrs[0].Name(), ctrs[0].State())
	}
	rg.k.RunUntil(stopped)
	if ctrs[0].State() != container.StateStopped {
		t.Errorf("at %v: %s is %v, want stopped one Stop delay after the resync at %v", rg.k.Now(), ctrs[0].Name(), ctrs[0].State(), resync)
	}
}

// TestResyncStartsBindInFlight binds a pod to the node half a watch latency
// before a resync. Its event is still in flight, so that resync starts the
// pod: its container is created the worker's delays after the resync
// instant, not after the watch event.
func TestResyncStartsBindInFlight(t *testing.T) {
	rg := newRig(t, nil)
	api := rg.kc.API()
	a := annotated(t, "web.example.com")
	rg.k.Go("pull", func(p *sim.Proc) {
		if err := rg.kc.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
		}
	})
	rg.k.RunUntil(time.Minute)
	period := api.t.sync + api.t.request // as in TestResyncForgetsDeleteInFlight
	resync := (rg.k.Now() + api.t.watch + period - 1) / period * period
	rg.k.RunUntil(resync - api.t.watch/2)
	api.CreatePod(&Pod{Name: "bound", NodeName: "egs", Spec: PodTemplate{Containers: a.Containers}})
	created := resync + api.t.process + api.t.sandbox + rg.rt.Delays().Create
	for _, want := range []int{0, 1} {
		at := created
		if want == 0 {
			at--
		}
		rg.k.RunUntil(at)
		if n := len(rg.rt.List(nil)); n != want {
			t.Errorf("at %v: %d containers, want %d (the resync at %v starts the pod)", at, n, want, resync)
		}
	}
}

// TestResyncRestartsPodAfterFailedPull: a pod whose image pull fails is left
// Pending and untracked, and no event will come for it. The resyncs start it
// again, so it runs once its image is in the registry.
func TestResyncRestartsPodAfterFailedPull(t *testing.T) {
	rg := newRig(t, nil)
	api := rg.kc.API()
	api.CreatePod(&Pod{Name: "late", NodeName: "egs", Spec: PodTemplate{Containers: []spec.ContainerSpec{{Name: "c", Image: "late:1"}}}})
	rg.k.RunUntil(10 * time.Second)
	if pod, _ := api.Pods.Get("late"); pod.Phase != PodPending {
		t.Fatalf("pod is %s with its image missing, want Pending", pod.Phase)
	}
	rg.srv.Add(registry.Image{Ref: "late:1", Layers: []registry.Layer{{Digest: "late-0", Size: simnet.MiB}}})
	rg.k.RunUntil(20 * time.Second)
	if pod, _ := api.Pods.Get("late"); pod.Phase != PodRunning {
		t.Errorf("pod is %s 10 s after its image was pushed, want Running", pod.Phase)
	}
}

// TestSecondPodOfServiceStaysUnschedulable: a Service's pods all listen on
// its NodePort, so with room for two pods and two replicas one pod runs and
// the other stays Pending and unbound, where binding it would start a second
// listener on the port.
func TestSecondPodOfServiceStaysUnschedulable(t *testing.T) {
	rg := newRig(t, func(c *Cluster) { c.api.t.nodeCPU, c.api.t.nodeMem = 8000, 16<<30 })
	def, err := spec.Parse(resourceYAML) // requests 4 cores / 8 GiB: half the node
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	api := rg.kc.API()
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		p.Sleep(api.t.request)
		d, _ := api.Deployments.Get(a.UniqueName)
		d = d.clone()
		d.Replicas = 2
		p.Sleep(api.t.request)
		api.Deployments.Update(d)
	})
	rg.k.RunUntil(time.Minute)
	pods := api.ListPods(map[string]string{"app": a.UniqueName})
	if len(pods) != 2 || pods[0].Phase != PodRunning || pods[1].Phase != PodPending || pods[1].NodeName != "" {
		t.Fatalf("pods = %+v, want the first running and the second Pending, unbound", pods)
	}
	if n := len(rg.rt.List(nil)); n != 1 {
		t.Errorf("%d containers on the node, want 1", n)
	}
}
