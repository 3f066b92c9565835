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
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
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
	images := registry.NewClient(node, res, registry.DefaultClientConfig())
	rt := container.NewRuntime(node, images, container.DefaultRuntimeConfig())
	behaviors := cluster.StaticBehaviors{
		"nginx:1.23.2": {InitDelay: 60 * time.Millisecond, ServiceTime: 300 * time.Microsecond, RespSize: simnet.KiB},
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	kc := New("egs-k8s", k, cfg)
	kc.AddNode("egs", rt, behaviors, DefaultCapacity())
	kc.Start()
	return &rig{k: k, node: node, client: cli, kc: kc, rt: rt}
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
		if rss := rg.kc.API().ListReplicaSets(nil, a.UniqueName); len(rss) != 1 {
			t.Errorf("replicasets = %d, want 1", len(rss))
		}
		pods := rg.kc.API().ListPods(nil, map[string]string{"app": a.UniqueName})
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
		pods := rg.kc.API().ListPods(nil, map[string]string{"app": a.UniqueName})
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
		if len(rg.kc.API().Deployments.List(nil)) != 0 {
			t.Error("deployment survived remove")
		}
		if len(rg.kc.API().ReplicaSets.List(nil)) != 0 {
			t.Error("replicaset survived remove")
		}
		if len(rg.kc.API().ListPods(nil, nil)) != 0 {
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
		pods := rg.kc.API().ListPods(nil, map[string]string{"app": a.UniqueName})
		if len(pods) != 1 {
			t.Errorf("pods = %d, want 1 (no duplicate scale-out)", len(pods))
		}
	})
	rg.k.RunUntil(10 * time.Minute)
}

func TestCustomLocalScheduler(t *testing.T) {
	picked := ""
	rg := newRig(t, func(cfg *Config) {
		cfg.LocalSched = &SchedulerConfig{
			Name:         "edge-local-sched",
			BindingDelay: 100 * time.Millisecond,
			Pick: func(pod *Pod, nodes []NodeStatus) string {
				picked = pod.Name
				return nodes[0].Name
			},
		}
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
	if picked == "" {
		t.Fatal("custom Local Scheduler was not invoked")
	}
}

func TestKubeletResyncBackstop(t *testing.T) {
	// Disable watch-driven startup by making watch latency enormous; the
	// periodic resync must still start the pod.
	rg := newRig(t, func(cfg *Config) {
		cfg.API.WatchLatency = 30 * time.Millisecond
		cfg.Kubelet.SyncPeriod = 500 * time.Millisecond
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
	api := NewAPIServer(k, APIConfig{RequestLatency: 0, WatchLatency: 10 * time.Millisecond})
	var events []Event
	w := api.Watch(KindDeployment)
	k.Go("watcher", func(p *sim.Proc) {
		for {
			ev, ok := w.Recv(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	k.Go("writer", func(p *sim.Proc) {
		d := &Deployment{Name: "d1", Replicas: 0}
		api.Deployments.Create(p, d)
		d.Replicas = 1
		api.Deployments.Update(p, d)
		api.Deployments.Delete(p, "d1")
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

// copyCase drives one kind through the store's copy contract: the store
// copies objects in on Create/Update and out on Get, and what List and watch
// events hand out are snapshots that no later write changes.
type copyCase[T object[T]] struct {
	kind   Kind
	obj    T          // the object to create
	mutate func(T)    // changes every reference-typed field in place
	create func(T)    // Create (or UpsertNode)
	update func(T)    // Update, nil if the kind has none
	get    func() T   // Get
	list   func() []T // List
	stored func() T   // the stored snapshot itself, not a copy
}

func (c copyCase[T]) run(t *testing.T, k *sim.Kernel, api *APIServer) {
	w := api.Watch(c.kind)
	var events []Event
	k.Go("watch:"+string(c.kind), func(p *sim.Proc) {
		for {
			ev, ok := w.Recv(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	k.Go("copy:"+string(c.kind), func(p *sim.Proc) {
		stored := c.stored
		unchanged := func(when string, want T) {
			t.Helper()
			if got := stored(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s changed the store: %+v, want %+v", c.kind, when, got, want)
			}
		}
		c.create(c.obj)
		want := stored().clone()
		c.mutate(c.obj)
		unchanged("mutating the object after Create", want)

		got := c.get()
		if got == stored() {
			t.Errorf("%s: Get returned the stored object, want a private copy", c.kind)
		}
		c.mutate(got)
		unchanged("mutating a Get result", want)

		listed := c.list()
		if len(listed) != 1 || listed[0] != stored() {
			t.Errorf("%s: List = %v, want the stored snapshot itself", c.kind, listed)
			return
		}
		if c.update != nil {
			c.update(got) // got is mutated: the store now differs from want
			if reflect.DeepEqual(stored(), want) {
				t.Errorf("%s: Update stored nothing new", c.kind)
			}
			now := stored().clone()
			c.mutate(got)
			unchanged("mutating the object after Update", now)
		}
		if !reflect.DeepEqual(listed[0], want) {
			t.Errorf("%s: a listed snapshot changed under its reader: %+v, want %+v", c.kind, listed[0], want)
		}
		p.Sleep(time.Second) // let the watch events arrive
		if len(events) == 0 {
			t.Errorf("%s: no watch events", c.kind)
			return
		}
		if first := events[0].Object.(T); !reflect.DeepEqual(first, want) {
			t.Errorf("%s: first event carries %+v, want the object as created %+v", c.kind, first, want)
		}
		if last := events[len(events)-1].Object.(T); last != stored() {
			t.Errorf("%s: last event does not carry the stored snapshot", c.kind)
		}
	})
}

func TestAPIServerCopySemantics(t *testing.T) {
	k := sim.New(1)
	api := NewAPIServer(k, APIConfig{})
	labels := func() map[string]string { return map[string]string{"a": "1"} }
	template := func() PodTemplate {
		return PodTemplate{Labels: labels(), Containers: []spec.ContainerSpec{{Name: "c", Image: "img"}}}
	}
	mutateTemplate := func(pt *PodTemplate) {
		pt.Labels["a"] = "mutated"
		pt.Containers[0].Image = "mutated"
	}
	copyCase[*Deployment]{
		kind: KindDeployment,
		obj:  &Deployment{Name: "d1", Labels: labels(), Template: template()},
		mutate: func(d *Deployment) {
			d.Labels["a"] = "mutated"
			mutateTemplate(&d.Template)
		},
		create: func(d *Deployment) { api.Deployments.Create(nil, d) },
		update: func(d *Deployment) { api.Deployments.Update(nil, d) },
		get:    func() *Deployment { d, _ := api.Deployments.Get(nil, "d1"); return d },
		list:   func() []*Deployment { return api.Deployments.List(nil) },
		stored: func() *Deployment { return api.Deployments.byName["d1"] },
	}.run(t, k, api)
	copyCase[*ReplicaSet]{
		kind: KindReplicaSet,
		obj:  &ReplicaSet{Name: "rs1", Owner: "d1", Labels: labels(), Template: template()},
		mutate: func(rs *ReplicaSet) {
			rs.Labels["a"] = "mutated"
			mutateTemplate(&rs.Template)
		},
		create: func(rs *ReplicaSet) { api.ReplicaSets.Create(nil, rs) },
		update: func(rs *ReplicaSet) { api.ReplicaSets.Update(nil, rs) },
		get:    func() *ReplicaSet { rs, _ := api.ReplicaSets.Get(nil, "rs1"); return rs },
		list:   func() []*ReplicaSet { return api.ListReplicaSets(nil, "d1") },
		stored: func() *ReplicaSet { return api.ReplicaSets.byName["rs1"] },
	}.run(t, k, api)
	copyCase[*Pod]{
		kind: KindPod,
		obj:  &Pod{Name: "p1", Owner: "rs1", Labels: labels(), Spec: template()},
		mutate: func(pod *Pod) {
			pod.Labels["a"] = "mutated"
			mutateTemplate(&pod.Spec)
		},
		create: func(pod *Pod) {
			if created, _ := api.CreatePod(nil, pod); created == api.Pods.byName["p1"] {
				t.Error("CreatePod returned the stored object, want a private copy")
			}
		},
		update: func(pod *Pod) { api.Pods.Update(nil, pod) },
		get:    func() *Pod { pod, _ := api.Pods.Get(nil, "p1"); return pod },
		list:   func() []*Pod { return api.ListPods(nil, map[string]string{"a": "1"}) },
		stored: func() *Pod { return api.Pods.byName["p1"] },
	}.run(t, k, api)
	copyCase[*Service]{
		kind: KindService,
		obj:  &Service{Name: "s1", Labels: labels(), Selector: labels()},
		mutate: func(s *Service) {
			s.Labels["a"] = "mutated"
			s.Selector["a"] = "mutated"
		},
		create: func(s *Service) { api.Services.Create(nil, s) },
		get:    func() *Service { s, _ := api.Services.Get(nil, "s1"); return s },
		list:   func() []*Service { return api.Services.List(nil) },
		stored: func() *Service { return api.Services.byName["s1"] },
	}.run(t, k, api)
	copyCase[*Node]{
		kind:   KindNode,
		obj:    &Node{Name: "n1", Ready: true},
		mutate: func(n *Node) { n.Ready = false },
		create: func(n *Node) { api.UpsertNode(nil, n.Name, n.Ready) },
		get:    func() *Node { n, _ := api.Nodes.Get(nil, "n1"); return n },
		list:   func() []*Node { return api.Nodes.List(nil) },
		stored: func() *Node { return api.nodes.byName["n1"] },
	}.run(t, k, api)
	k.Run()
}

// TestPodCreateFillsTheCopy: a pod's generated name and default phase are
// written on the stored copy, never into the caller's object, and both create
// calls (CreatePod, Pods.Create) fill them in.
func TestPodCreateFillsTheCopy(t *testing.T) {
	api := NewAPIServer(sim.New(1), APIConfig{})
	pod := &Pod{Owner: "rs1"}
	got, err := api.CreatePod(nil, pod)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Name != "" || pod.Phase != "" {
		t.Errorf("caller's pod = %q/%q after CreatePod, want it untouched", pod.Name, pod.Phase)
	}
	if got.Name != "rs1-00001" || got.Phase != PodPending {
		t.Errorf("CreatePod returned %q/%q, want rs1-00001/%s", got.Name, got.Phase, PodPending)
	}
	if err := api.Pods.Create(nil, pod); err != nil {
		t.Fatal(err)
	}
	if stored, err := api.Pods.Get(nil, "rs1-00002"); err != nil || stored.Phase != PodPending {
		t.Errorf("Pods.Create stored %+v, %v; want rs1-00002 %s", stored, err, PodPending)
	}
	if pod.Name != "" {
		t.Errorf("caller's pod named %q after Pods.Create, want it untouched", pod.Name)
	}
}

func TestLeastLoadedPicker(t *testing.T) {
	nodes := []NodeStatus{{Name: "b", Pods: 2}, {Name: "a", Pods: 2}, {Name: "c", Pods: 1}}
	if got := LeastLoaded(&Pod{}, nodes); got != "c" {
		t.Fatalf("LeastLoaded = %q, want c", got)
	}
	tie := []NodeStatus{{Name: "b", Pods: 1}, {Name: "a", Pods: 1}}
	if got := LeastLoaded(&Pod{}, tie); got != "a" {
		t.Fatalf("LeastLoaded tie = %q, want a", got)
	}
	if got := LeastLoaded(&Pod{}, nil); got != "" {
		t.Fatalf("LeastLoaded(empty) = %q", got)
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

func TestTwoNodeSpreading(t *testing.T) {
	// Two nodes, two services: LeastLoaded spreads pods across nodes.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	mkNode := func(name string, ip simnet.Addr) (*simnet.Host, *container.Runtime) {
		h := simnet.NewHost(n, name, ip)
		res := registry.NewResolver()
		regHost := simnet.NewHost(n, name+"-reg", ip+"0")
		r := simnet.NewRouter(n, name+"-r")
		_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		r.AddRoute(h.IP(), hp)
		r.AddRoute(regHost.IP(), rp)
		srv := registry.NewServer(regHost, registry.ServerConfig{})
		srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
		res.AddPrefix("", regHost.IP())
		return h, container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	}
	_, rt1 := mkNode("n1", "10.0.1.1")
	_, rt2 := mkNode("n2", "10.0.2.1")
	beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
	kc := New("multi", k, DefaultConfig())
	kc.AddNode("n1", rt1, beh, DefaultCapacity())
	kc.AddNode("n2", rt2, beh, DefaultCapacity())
	kc.Start()
	a1 := annotated(t, "s1.example.com")
	a2 := annotated(t, "s2.example.com")
	k.Go("driver", func(p *sim.Proc) {
		kc.Pull(p, a1)
		kc.Create(p, a1)
		kc.Create(p, a2)
		i1, _ := kc.ScaleUp(p, a1.UniqueName)
		i2, _ := kc.ScaleUp(p, a2.UniqueName)
		if i1.Addr == i2.Addr {
			t.Errorf("both pods on %s; want spread across nodes", i1.Addr)
		}
	})
	k.RunUntil(60 * time.Second)
}

// TestEndpointsControllerTracksReadyPods: Cluster.Endpoints, which derives a
// Service's backends from its running pods on every call, is the endpoints
// controller — empty before scale-up and while the pod starts, the one pod
// once it runs, empty again after scale-down.
func TestEndpointsControllerTracksReadyPods(t *testing.T) {
	rg := newRig(t, nil)
	a := annotated(t, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.kc.Pull(p, a)
		rg.kc.Create(p, a)
		p.Sleep(2 * time.Second)
		if eps := rg.kc.Endpoints(a.UniqueName); len(eps) != 0 {
			t.Errorf("endpoints before scale-up = %+v", eps)
		}
		inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
		if eps := rg.kc.Endpoints(a.UniqueName); len(eps) != 0 {
			t.Errorf("endpoints of a pod that is bound but not started = %+v", eps)
		}
		probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
		if eps := rg.kc.Endpoints(a.UniqueName); len(eps) != 1 || eps[0] != inst {
			t.Fatalf("endpoints after scale-up = %+v, want [%+v]", eps, inst)
		}
		// Scale down: the endpoints empty out.
		rg.kc.ScaleDown(p, a.UniqueName)
		p.Sleep(10 * time.Second)
		if eps := rg.kc.Endpoints(a.UniqueName); len(eps) != 0 {
			t.Errorf("endpoints after scale-down = %+v", eps)
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
		d, _ := rg.kc.API().Deployments.Get(p, a.UniqueName)
		d.Replicas = 1
		rg.kc.API().Deployments.Update(p, d)
		p.Sleep(1200 * time.Millisecond) // pod bound, kubelet mid-startup
		if err := rg.kc.ScaleDown(p, a.UniqueName); err != nil {
			t.Errorf("scaledown: %v", err)
		}
		p.Sleep(30 * time.Second)
		if pods := rg.kc.API().ListPods(nil, map[string]string{"app": a.UniqueName}); len(pods) != 0 {
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
	q.serve(NewAPIServer(q.k, APIConfig{}), ControllerConfig{Workers: workers}, func(w *worker) sim.Step[worker] {
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

func TestMultiReplicaEndpoints(t *testing.T) {
	// Two nodes, replicas=2: Endpoints exposes both pods' instances.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	mkNode := func(name string, ip simnet.Addr) *container.Runtime {
		h := simnet.NewHost(n, name, ip)
		regHost := simnet.NewHost(n, name+"-reg", ip+"0")
		r := simnet.NewRouter(n, name+"-r")
		_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		r.AddRoute(h.IP(), hp)
		r.AddRoute(regHost.IP(), rp)
		srv := registry.NewServer(regHost, registry.ServerConfig{})
		srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
		res := registry.NewResolver()
		res.AddPrefix("", regHost.IP())
		return container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	}
	rt1 := mkNode("n1", "10.0.1.1")
	rt2 := mkNode("n2", "10.0.2.1")
	beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
	kc := New("multi", k, DefaultConfig())
	kc.AddNode("n1", rt1, beh, DefaultCapacity())
	kc.AddNode("n2", rt2, beh, DefaultCapacity())
	kc.Start()
	a := annotated(t, "web.example.com")
	k.Go("driver", func(p *sim.Proc) {
		kc.Pull(p, a)
		kc.Create(p, a)
		if err := kc.SetReplicas(p, a.UniqueName, 2); err != nil {
			t.Errorf("SetReplicas: %v", err)
			return
		}
		// Wait for both pods to run.
		for len(kc.Endpoints(a.UniqueName)) < 2 {
			p.Sleep(200 * time.Millisecond)
		}
		eps := kc.Endpoints(a.UniqueName)
		if len(eps) != 2 || eps[0].Addr == eps[1].Addr {
			t.Errorf("endpoints = %+v, want one per node", eps)
		}
		// Scale back to one: endpoints shrink.
		kc.SetReplicas(p, a.UniqueName, 1)
		for len(kc.Endpoints(a.UniqueName)) != 1 {
			p.Sleep(200 * time.Millisecond)
		}
		if err := kc.SetReplicas(p, a.UniqueName, -1); err == nil {
			t.Error("negative replicas accepted")
		}
		if err := kc.SetReplicas(p, "ghost", 1); err == nil {
			t.Error("SetReplicas on unknown service accepted")
		}
	})
	k.RunUntil(5 * time.Minute)
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

func TestResourceAwareScheduling(t *testing.T) {
	// One small node (2 cores) and one big node (16 cores): a pod asking
	// for 4 cores must land on the big node even though LeastLoaded would
	// otherwise prefer the emptier small node.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	mkNode := func(name string, ip simnet.Addr) *container.Runtime {
		h := simnet.NewHost(n, name, ip)
		regHost := simnet.NewHost(n, name+"-reg", ip+"0")
		r := simnet.NewRouter(n, name+"-r")
		_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		r.AddRoute(h.IP(), hp)
		r.AddRoute(regHost.IP(), rp)
		srv := registry.NewServer(regHost, registry.ServerConfig{})
		srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
		res := registry.NewResolver()
		res.AddPrefix("", regHost.IP())
		return container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	}
	rtSmall := mkNode("small", "10.0.1.1")
	rtBig := mkNode("big", "10.0.2.1")
	beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
	kc := New("caps", k, DefaultConfig())
	kc.AddNode("small", rtSmall, beh, Capacity{CPUMillis: 2000, MemoryBytes: 4 << 30})
	kc.AddNode("big", rtBig, beh, Capacity{CPUMillis: 16000, MemoryBytes: 64 << 30})
	kc.Start()

	def, err := spec.Parse(resourceYAML)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: "heavy.example.com", VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Containers[0].CPUMillis != 4000 || a.Containers[0].MemoryBytes != 8<<30 {
		t.Fatalf("requests parsed = %d / %d", a.Containers[0].CPUMillis, a.Containers[0].MemoryBytes)
	}
	k.Go("driver", func(p *sim.Proc) {
		kc.Pull(p, a)
		kc.Create(p, a)
		inst, err := kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		if inst.Addr != "10.0.2.1" {
			t.Errorf("pod landed on %s, want the big node", inst.Addr)
		}
	})
	k.RunUntil(5 * time.Minute)
}

func TestUnschedulablePodWaitsForCapacity(t *testing.T) {
	// One node with 4 cores; two pods asking 3 cores each: the second
	// stays Pending until the first is deleted, then binds.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	h := simnet.NewHost(n, "node", "10.0.1.1")
	regHost := simnet.NewHost(n, "reg", "10.0.9.1")
	r := simnet.NewRouter(n, "r")
	_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
	_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
	r.AddRoute(h.IP(), hp)
	r.AddRoute(regHost.IP(), rp)
	srv := registry.NewServer(regHost, registry.ServerConfig{})
	srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
	res := registry.NewResolver()
	res.AddPrefix("", regHost.IP())
	rt := container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
	kc := New("tight", k, DefaultConfig())
	kc.AddNode("node", rt, beh, Capacity{CPUMillis: 4000, MemoryBytes: 32 << 30})
	kc.Start()

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
		d, _ := kc.API().Deployments.Get(p, a2.UniqueName)
		d.Replicas = 1
		kc.API().Deployments.Update(p, d)
		p.Sleep(10 * time.Second)
		pods := kc.API().ListPods(nil, map[string]string{"app": a2.UniqueName})
		if len(pods) != 1 || pods[0].NodeName != "" {
			t.Errorf("a2 pod = %+v, want unbound Pending", pods)
			return
		}
		// Free the capacity: a2 binds.
		kc.ScaleDown(p, a1.UniqueName)
		p.Sleep(30 * time.Second)
		pods = kc.API().ListPods(nil, map[string]string{"app": a2.UniqueName})
		if len(pods) != 1 || pods[0].NodeName == "" {
			t.Errorf("a2 pod after capacity freed = %+v, want bound", pods)
		}
	})
	k.RunUntil(10 * time.Minute)
}

func TestNodeFailureEvictsAndReschedules(t *testing.T) {
	// Two nodes; node n1 dies after the pod lands there. The node
	// controller marks it NotReady after the grace period, evicts the
	// pod, and the replacement is scheduled on the surviving node n2.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	mkNode := func(name string, ip simnet.Addr) *container.Runtime {
		h := simnet.NewHost(n, name, ip)
		regHost := simnet.NewHost(n, name+"-reg", ip+"0")
		r := simnet.NewRouter(n, name+"-r")
		_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
		r.AddRoute(h.IP(), hp)
		r.AddRoute(regHost.IP(), rp)
		srv := registry.NewServer(regHost, registry.ServerConfig{})
		srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
		res := registry.NewResolver()
		res.AddPrefix("", regHost.IP())
		return container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	}
	rt1 := mkNode("n1", "10.0.1.1")
	rt2 := mkNode("n2", "10.0.2.1")
	beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
	cfg := DefaultConfig()
	cfg.NodeLifecycle = NodeLifecycleConfig{
		HeartbeatPeriod: 2 * time.Second,
		GracePeriod:     8 * time.Second,
		MonitorPeriod:   2 * time.Second,
	}
	// Pin the first pod to n1 so the failure is deterministic.
	cfg.Scheduler.Pick = func(pod *Pod, nodes []NodeStatus) string {
		for _, st := range nodes {
			if st.Name == "n1" {
				return "n1"
			}
		}
		return LeastLoaded(pod, nodes)
	}
	kc := New("ha", k, cfg)
	kc.AddNode("n1", rt1, beh, DefaultCapacity())
	kc.AddNode("n2", rt2, beh, DefaultCapacity())
	kc.Start()
	a := annotated(t, "web.example.com")
	k.Go("driver", func(p *sim.Proc) {
		kc.Pull(p, a)
		kc.Create(p, a)
		inst, err := kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		if inst.Addr != "10.0.1.1" {
			t.Errorf("pod on %s, want pinned to n1", inst.Addr)
			return
		}
		p.Sleep(5 * time.Second)
		// Node n1 dies.
		kc.Kubelet("n1").SetFailed(true)
		// Wait past grace + monitor + reschedule + restart.
		p.Sleep(time.Minute)
		node, _ := kc.API().Nodes.Get(nil, "n1")
		if node == nil || node.Ready {
			t.Errorf("n1 = %+v, want NotReady", node)
		}
		eps := kc.Endpoints(a.UniqueName)
		if len(eps) != 1 || eps[0].Addr != "10.0.2.1" {
			t.Errorf("endpoints after failure = %+v, want rescheduled on n2", eps)
		}
	})
	k.RunUntil(10 * time.Minute)
}

func TestNodeHeartbeatsKeepNodeReady(t *testing.T) {
	rg := newRig(t, func(cfg *Config) {
		cfg.NodeLifecycle = NodeLifecycleConfig{
			HeartbeatPeriod: time.Second,
			GracePeriod:     4 * time.Second,
			MonitorPeriod:   time.Second,
		}
	})
	rg.k.RunUntil(30 * time.Second)
	node, _ := rg.kc.API().Nodes.Get(nil, "egs")
	if node == nil || !node.Ready {
		t.Fatalf("node = %+v, want Ready with ongoing heartbeats", node)
	}
	if len(rg.kc.API().Nodes.List(nil)) != 1 {
		t.Fatalf("nodes = %d", len(rg.kc.API().Nodes.List(nil)))
	}
}

// TestSchedulerRetriesParkedPodsInNameOrder: three pods park behind one that
// fills the node; deleting it frees room for all three, and the scheduler
// retries them one serial cycle each — so the retry order is the bind order.
// It must not depend on Go's map iteration: every kernel binds them by name.
func TestSchedulerRetriesParkedPodsInNameOrder(t *testing.T) {
	want := []string{"parked-a", "parked-b", "parked-c"}
	for run := 0; run < 20; run++ {
		k := sim.New(1)
		api := NewAPIServer(k, APIConfig{})
		RunScheduler(api, SchedulerConfig{}, []NodeRef{{Name: "node", Cap: Capacity{CPUMillis: 3000, MemoryBytes: 1 << 30}}})
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
			api.CreatePod(p, pod("blocker", 3000))
			p.Sleep(time.Second)
			for _, name := range []string{"parked-c", "parked-a", "parked-b"} {
				api.CreatePod(p, pod(name, 1000))
			}
			p.Sleep(10 * time.Second)
			if len(bound) != 1 {
				t.Errorf("run %d: bound %v while the blocker holds the node, want the blocker alone", run, bound)
			}
			bound = nil
			api.Pods.Delete(p, "blocker")
		})
		k.RunUntil(time.Minute)
		if !reflect.DeepEqual(bound, want) {
			t.Fatalf("run %d: bind order after capacity freed = %v, want %v", run, bound, want)
		}
	}
}

// TestKubeletTearsDownOrphansInNameOrder: pods evicted while their node was
// NotReady are orphans on the kubelet when the node comes back, and its
// resync stops their containers one after the other — each stop sleeps — so
// the order is the stop order. It must not depend on Go's map iteration:
// every kernel stops them by pod name.
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
		rg.k.Go("driver", func(p *sim.Proc) {
			for _, a := range services {
				rg.kc.Pull(p, a)
				rg.kc.Create(p, a)
				inst, _ := rg.kc.ScaleUp(p, a.UniqueName)
				probeUntilOpen(p, rg.client, inst, 100*time.Millisecond)
			}
			running := rg.rt.List(nil)
			kl := rg.kc.Kubelet("egs")
			kl.SetFailed(true)
			p.Sleep(time.Minute) // past the grace period: the pods are evicted
			if pods := rg.kc.API().ListPodsByNode(nil, "egs"); len(pods) != 0 {
				t.Errorf("run %d: %d pods still bound to the failed node", run, len(pods))
			}
			kl.SetFailed(false)
			stopped := map[string]bool{}
			for len(stops) < len(running) && p.Now() < 2*time.Minute {
				p.Sleep(time.Millisecond)
				for _, ctr := range running {
					if ctr.State() != container.StateRunning && !stopped[ctr.Name()] {
						stopped[ctr.Name()] = true
						stops = append(stops, stop{ctr.Name(), p.Now()})
					}
				}
			}
		})
		rg.k.RunUntil(5 * time.Minute)
		if len(stops) != len(services) {
			t.Fatalf("run %d: %d containers stopped after the node came back, want %d", run, len(stops), len(services))
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
