package core_test

import (
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/steer"
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

// mobilityRig is a two-gNB topology: the client starts behind gnb1 (where
// the EGS lives) and later moves behind gnb2, which reaches the EGS through
// the inter-switch link.
type mobilityRig struct {
	k          *sim.Kernel
	n          *simnet.Network
	gnb1, gnb2 *openflow.Switch
	egs        *simnet.Host
	client     *simnet.Host
	ctrl       *core.Controller
	eng        *docker.Engine
}

func newMobilityRig(t *testing.T) *mobilityRig {
	t.Helper()
	return newMobilityRigWith(t, nil)
}

// newMobilityRigWith builds the rig with an explicit steering backend (nil =
// the default per-flow openflow rules). Optional opts mutate the controller
// config before construction (e.g. to attach a tracer).
func newMobilityRigWith(t *testing.T, steering steer.Steering, opts ...func(*core.Config)) *mobilityRig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	rg := &mobilityRig{k: k, n: n}
	rg.gnb1 = openflow.NewSwitch(n, "gnb1", openflow.DefaultConfig())
	rg.gnb2 = openflow.NewSwitch(n, "gnb2", openflow.DefaultConfig())

	// Inter-switch link on port 10 of both.
	p1, p2 := n.Connect(rg.gnb1, rg.gnb2, simnet.LinkConfig{
		Name: "x-haul", Latency: 500 * time.Microsecond, Bandwidth: 10 * simnet.Gbps,
	})
	rg.gnb1.AddPort(10, p1)
	rg.gnb2.AddPort(10, p2)

	rg.egs = simnet.NewHost(n, "egs", "10.0.0.10")
	rg.gnb1.AttachHost(rg.egs, 1, simnet.LinkConfig{Latency: 50 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	// gnb2 reaches the EGS via the inter-switch link.
	rg.gnb2.SetRoute(rg.egs.IP(), 10)

	rg.client = simnet.NewHost(n, "ue", "10.0.1.1")
	rg.client.ProcDelay = 200 * time.Microsecond
	rg.gnb1.AttachHost(rg.client, 2, simnet.LinkConfig{Latency: 150 * time.Microsecond, Bandwidth: simnet.Gbps})
	rg.gnb2.SetRoute(rg.client.IP(), 10) // initially via gnb1

	// Registry + runtime + Docker cluster on the EGS.
	regHost := simnet.NewHost(n, "hub", "198.51.100.1")
	rg.gnb1.AttachHost(regHost, 3, simnet.LinkConfig{Latency: 5 * time.Millisecond, Bandwidth: simnet.Gbps})
	rg.gnb2.SetRoute(regHost.IP(), 10)
	srv := registry.NewServer(regHost, registry.ServerConfig{})
	srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: 10 * simnet.MiB}}})
	res := registry.NewResolver()
	res.AddPrefix("", regHost.IP())
	images := registry.NewClient(rg.egs, res)
	rt := container.NewRuntime(rg.egs, images)
	behaviors := cluster.StaticBehaviors{
		"nginx:1.23.2": {InitDelay: 60 * time.Millisecond, ServiceTime: 250 * time.Microsecond, RespSize: simnet.KiB},
	}
	rg.eng = docker.New("egs-docker", rt, behaviors)

	cfg := core.Config{}
	cfg.Scheduler = core.WaitNearestScheduler{}
	cfg.SwitchIdleTimeout = 30 * time.Second
	cfg.Steering = steering
	for _, o := range opts {
		o(&cfg)
	}
	rg.ctrl = core.New(k, rg.egs, cfg)
	rg.ctrl.AddSwitch(rg.gnb1)
	rg.ctrl.AddSwitch(rg.gnb2)
	rg.ctrl.AddCluster(rg.eng, "docker")
	return rg
}

// moveClientToGnb2 re-homes the UE through the handover primitives: the old
// radio link is severed (in-flight packets on it drop at their own events),
// the client re-attaches behind gnb2, both switches' routes follow, and the
// controller is told so steering state migrates too.
func (rg *mobilityRig) moveClientToGnb2() {
	rg.gnb1.DetachPort(2)
	_, np := rg.client.MoveTo(rg.gnb2, simnet.LinkConfig{Latency: 150 * time.Microsecond, Bandwidth: simnet.Gbps})
	rg.gnb2.AddPort(2, np)
	rg.gnb2.SetRoute(rg.client.IP(), 2)
	rg.gnb1.SetRoute(rg.client.IP(), 10) // now via the inter-switch link
	rg.ctrl.NoteHandover(rg.client.IP(), rg.gnb2)
}

func TestClientMobilityAcrossSwitches(t *testing.T) {
	rg := newMobilityRig(t)
	a, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	var atGnb1, atGnb2 *simnet.HTTPResult
	rg.k.Go("ue", func(p *sim.Proc) {
		// First request from behind gnb1: on-demand deployment.
		var rerr error
		atGnb1, rerr = rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0)
		if rerr != nil {
			t.Errorf("request at gnb1: %v", rerr)
			return
		}
		loc, ok := rg.ctrl.ClientLocation(rg.client.IP())
		if !ok || loc != rg.gnb1 {
			t.Errorf("client location = %+v, want gnb1", loc)
		}

		// Handover.
		rg.moveClientToGnb2()
		p.Sleep(time.Second)

		// The SYN now arrives at gnb2, which has no flow for it: its punt
		// rule punts to the controller, the FlowMemory answers without
		// re-scheduling, and the request is served by the same instance.
		atGnb2, rerr = rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0)
		if rerr != nil {
			t.Errorf("request at gnb2: %v", rerr)
			return
		}
		loc, ok = rg.ctrl.ClientLocation(rg.client.IP())
		if !ok || loc != rg.gnb2 {
			t.Errorf("client location after handover = %+v, want gnb2", loc)
		}
		// gnb2 now has redirect flows of its own (checked before they
		// idle-expire).
		redirects := 0
		for _, r := range rg.gnb2.Rules() {
			if r.Priority == 100 {
				redirects++
			}
		}
		if redirects != 2 {
			t.Errorf("gnb2 redirect rules = %d, want forward+reverse pair", redirects)
		}
	})
	rg.k.RunUntil(5 * time.Minute)
	if atGnb1 == nil || atGnb2 == nil {
		t.Fatal("requests incomplete")
	}
	if atGnb1.Total < 400*time.Millisecond {
		t.Errorf("first request %v, want a cold deployment", atGnb1.Total)
	}
	// Post-handover request: memory-served, only the extra inter-switch
	// hop on the path.
	if atGnb2.Total > 20*time.Millisecond {
		t.Errorf("post-handover request = %v, want low ms", atGnb2.Total)
	}
	if rg.ctrl.Stats.MemoryServed == 0 {
		t.Error("handover was not served from the FlowMemory")
	}
	if rg.ctrl.Stats.Deployments != 1 {
		t.Errorf("deployments = %d, want 1 (no re-deployment on handover)", rg.ctrl.Stats.Deployments)
	}
	_ = a
}

func TestMobilityPuntRulesOnBothSwitches(t *testing.T) {
	rg := newMobilityRig(t)
	_, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*openflow.Switch{rg.gnb1, rg.gnb2} {
		found := false
		for _, r := range sw.Rules() {
			if r.Actions.Output == openflow.OutputController {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no punt rule installed", sw.Name())
		}
	}
}

// newBareSwitch builds a standalone switch for controller tests.
func newBareSwitch(n *simnet.Network) *openflow.Switch {
	return openflow.NewSwitch(n, "sw", openflow.DefaultConfig())
}

// TestPerClientProximity builds two edge sites (one per gNB) and verifies
// that the proximity scheduler sends each client to ITS closest edge — the
// transparent-access promise ("redirects it to the closest available edge
// server") — using the dispatcher's client-location tracking as the
// distance signal.
func TestPerClientProximity(t *testing.T) {
	rg := newMobilityRig(t)

	// Second edge site behind gnb2 with its own runtime and registry path.
	edge2 := simnet.NewHost(rg.n, "edge2", "10.0.2.10")
	rg.gnb2.AttachHost(edge2, 5, simnet.LinkConfig{Latency: 50 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	rg.gnb1.SetRoute(edge2.IP(), 10)
	res := registry.NewResolver()
	res.AddPrefix("", "198.51.100.1") // the rig's hub
	rt2 := container.NewRuntime(edge2, registry.NewClient(edge2, res))
	beh := cluster.StaticBehaviors{
		"nginx:1.23.2": {InitDelay: 60 * time.Millisecond, ServiceTime: 250 * time.Microsecond, RespSize: simnet.KiB},
	}
	eng2 := docker.New("edge2-docker", rt2, beh)

	// Second client behind gnb2.
	ue2 := simnet.NewHost(rg.n, "ue2", "10.0.1.2")
	ue2.ProcDelay = 200 * time.Microsecond
	rg.gnb2.AttachHost(ue2, 3, simnet.LinkConfig{Latency: 150 * time.Microsecond, Bandwidth: simnet.Gbps})
	rg.gnb1.SetRoute(ue2.IP(), 10)

	// Location-aware distance: a cluster co-located with the client's
	// current switch ranks 0, anything else 1.
	siteOf := map[string]*openflow.Switch{
		"egs-docker":   rg.gnb1,
		"edge2-docker": rg.gnb2,
	}
	cfg := core.Config{}
	cfg.Scheduler = core.WaitNearestScheduler{}
	var ctrl *core.Controller
	cfg.Distance = func(client simnet.Addr, cl cluster.Cluster) int {
		if loc, ok := ctrl.ClientLocation(client); ok && siteOf[cl.Name()] == loc {
			return 0
		}
		return 1
	}
	ctrl = core.New(rg.k, rg.egs, cfg)
	ctrl.AddSwitch(rg.gnb1)
	ctrl.AddSwitch(rg.gnb2)
	ctrl.AddCluster(rg.eng, "docker")
	ctrl.AddCluster(eng2, "docker")
	a, err := ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	})
	if err != nil {
		t.Fatal(err)
	}

	served := map[simnet.Addr]string{}
	rg.k.Go("ues", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("ue1: %v", err)
			return
		}
		if _, err := ue2.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("ue2: %v", err)
			return
		}
		for _, e := range ctrl.Memory.Entries() {
			served[e.Key.Client] = e.Instance.Cluster
		}
	})
	rg.k.RunUntil(10 * time.Minute)
	if served[rg.client.IP()] != "egs-docker" {
		t.Errorf("ue1 served by %q, want its local egs-docker", served[rg.client.IP()])
	}
	if served[ue2.IP()] != "edge2-docker" {
		t.Errorf("ue2 served by %q, want its local edge2-docker", served[ue2.IP()])
	}
	// Each site deployed its own instance of the same registered service.
	if !rg.eng.Running(a.UniqueName) || !eng2.Running(a.UniqueName) {
		t.Error("both sites should run the service")
	}
}
