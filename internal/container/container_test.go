package container

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// awaitReady polls c until it reports ready.
func awaitReady(p *sim.Proc, c *Container, every time.Duration) {
	for !c.Ready() {
		p.Sleep(every)
	}
}

// create, start, stop and remove pay the runtime's delay and then run the
// operation, as the runtime's callers do.
func create(p *sim.Proc, r *Runtime, cfg Config) (*Container, error) {
	p.Sleep(r.t.Create)
	return r.Create(cfg)
}

func start(p *sim.Proc, c *Container, hostPort int) error {
	p.Sleep(c.rt.t.Start)
	return c.Start(hostPort)
}

func stop(p *sim.Proc, c *Container) error {
	p.Sleep(c.rt.t.Stop)
	return c.Stop()
}

func remove(p *sim.Proc, c *Container) error {
	if c.State() == StateRunning {
		p.Sleep(c.rt.t.Stop)
	}
	p.Sleep(c.rt.t.Remove)
	return c.Remove()
}

// rig wires a node with a runtime and a registry holding test images.
type rig struct {
	k      *sim.Kernel
	node   *simnet.Host
	client *simnet.Host
	rt     *Runtime
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	node := simnet.NewHost(n, "edge", "10.0.0.1")
	cli := simnet.NewHost(n, "client", "10.0.0.2")
	reg := simnet.NewHost(n, "registry", "198.51.100.1")
	r := simnet.NewRouter(n, "r")
	_, a := node.AttachTo(r, simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 1 * simnet.Gbps})
	_, b := cli.AttachTo(r, simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 1 * simnet.Gbps})
	_, c := reg.AttachTo(r, simnet.LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: 1 * simnet.Gbps})
	r.AddRoute(node.IP(), a)
	r.AddRoute(cli.IP(), b)
	r.AddRoute(reg.IP(), c)
	srv := registry.NewServer(reg, registry.ServerConfig{})
	srv.Add(registry.Image{Ref: "web:1", Layers: []registry.Layer{{Digest: "web-0", Size: simnet.MiB}}})
	res := registry.NewResolver()
	res.AddPrefix("", reg.IP())
	images := registry.NewClient(node, res)
	return &rig{k: k, node: node, client: cli, rt: NewRuntime(node, images)}
}

func webConfig(name string, init time.Duration) Config {
	return Config{
		Name:      name,
		Image:     "web:1",
		AppPort:   80,
		InitDelay: init,
		AsyncHandler: func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
			c.Respond(&simnet.HTTPResponse{Status: 200, Body: "ok"})
		},
		Labels: map[string]string{"edge.service": name},
	}
}

func TestCreateRequiresImage(t *testing.T) {
	rg := newRig(t)
	var err error
	rg.k.Go("t", func(p *sim.Proc) {
		_, err = create(p, rg.rt, webConfig("c1", 0))
	})
	rg.k.Run()
	if !errors.Is(err, ErrImageNotPresent) {
		t.Fatalf("err = %v, want ErrImageNotPresent", err)
	}
}

func TestLifecycleAndReadiness(t *testing.T) {
	rg := newRig(t)
	rg.rt.t = Delays{Create: 50 * time.Millisecond, Start: 300 * time.Millisecond, Stop: 20 * time.Millisecond, Remove: 10 * time.Millisecond}
	var createdAt, startedAt, readyAt time.Duration
	rg.k.Go("t", func(p *sim.Proc) {
		if err := rg.rt.PullImage(p, "web:1"); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		t0 := p.Now()
		c, err := create(p, rg.rt, webConfig("c1", 100*time.Millisecond))
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		createdAt = p.Now() - t0
		if c.State() != StateCreated {
			t.Errorf("state = %v", c.State())
		}
		if err := start(p, c, 30080); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		startedAt = p.Now() - t0
		if c.Ready() {
			t.Error("ready immediately after start")
		}
		awaitReady(p, c, 10*time.Millisecond)
		readyAt = p.Now() - t0
	})
	rg.k.Run()
	if createdAt != 50*time.Millisecond {
		t.Errorf("create took %v, want 50ms", createdAt)
	}
	if startedAt != 350*time.Millisecond {
		t.Errorf("start completed at %v, want 350ms", startedAt)
	}
	if readyAt < 450*time.Millisecond || readyAt > 470*time.Millisecond {
		t.Errorf("ready at %v, want ~450ms", readyAt)
	}
}

func TestPortServesAfterReady(t *testing.T) {
	rg := newRig(t)
	var refusedErr, okErr error
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 200*time.Millisecond))
		start(p, c, 30080)
		// Immediately after start the port must refuse (app initializing).
		_, refusedErr = rg.client.HTTPGet(p, rg.node.IP(), 30080, &simnet.HTTPRequest{}, 0)
		awaitReady(p, c, 10*time.Millisecond)
		res, err := rg.client.HTTPGet(p, rg.node.IP(), 30080, &simnet.HTTPRequest{}, 0)
		okErr = err
		if err == nil && res.Resp.Status != 200 {
			t.Errorf("status = %d", res.Resp.Status)
		}
	})
	rg.k.Run()
	if !errors.Is(refusedErr, simnet.ErrConnRefused) {
		t.Fatalf("pre-ready dial err = %v, want refused", refusedErr)
	}
	if okErr != nil {
		t.Fatalf("post-ready request: %v", okErr)
	}
}

func TestStopClosesPort(t *testing.T) {
	rg := newRig(t)
	var err error
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 0))
		start(p, c, 30080)
		awaitReady(p, c, 5*time.Millisecond)
		if err2 := stop(p, c); err2 != nil {
			t.Errorf("stop: %v", err2)
		}
		_, err = rg.client.HTTPGet(p, rg.node.IP(), 30080, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	if !errors.Is(err, simnet.ErrConnRefused) {
		t.Fatalf("dial after stop = %v, want refused", err)
	}
}

func TestRestartAfterStop(t *testing.T) {
	rg := newRig(t)
	ok := false
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 0))
		start(p, c, 30080)
		awaitReady(p, c, 5*time.Millisecond)
		stop(p, c)
		if err := start(p, c, 30081); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		awaitReady(p, c, 5*time.Millisecond)
		_, err := rg.client.HTTPGet(p, rg.node.IP(), 30081, &simnet.HTTPRequest{}, 0)
		ok = err == nil
	})
	rg.k.Run()
	if !ok {
		t.Fatal("restarted container not reachable on new port")
	}
}

func TestStaleInitEventIgnored(t *testing.T) {
	// Start, stop before InitDelay elapses, restart: the first (stale)
	// init event must not mark the restarted container ready early.
	rg := newRig(t)
	rg.rt.t = Delays{Start: 10 * time.Millisecond}
	var readyAt time.Duration
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 500*time.Millisecond))
		start(p, c, 30080)
		p.Sleep(100 * time.Millisecond) // init pending
		stop(p, c)
		start(p, c, 30080)
		startDone := p.Now()
		awaitReady(p, c, time.Millisecond)
		readyAt = p.Now() - startDone
	})
	rg.k.Run()
	if readyAt < 490*time.Millisecond {
		t.Fatalf("restarted container ready after %v, want ~500ms (stale init leaked)", readyAt)
	}
}

func TestDoubleStartFails(t *testing.T) {
	rg := newRig(t)
	var err error
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 0))
		start(p, c, 30080)
		err = start(p, c, 30080)
	})
	rg.k.Run()
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
}

func TestDuplicateNameFails(t *testing.T) {
	rg := newRig(t)
	var err error
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		create(p, rg.rt, webConfig("c1", 0))
		_, err = create(p, rg.rt, webConfig("c1", 0))
	})
	rg.k.Run()
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
}

func TestRemoveRunningContainer(t *testing.T) {
	rg := newRig(t)
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		c, _ := create(p, rg.rt, webConfig("c1", 0))
		start(p, c, 30080)
		awaitReady(p, c, 5*time.Millisecond)
		if err := remove(p, c); err != nil {
			t.Errorf("remove: %v", err)
		}
		if c.State() != StateRemoved {
			t.Errorf("state = %v", c.State())
		}
		if _, ok := rg.rt.containers["c1"]; ok {
			t.Error("container still listed after remove")
		}
	})
	rg.k.Run()
}

func TestListByLabel(t *testing.T) {
	rg := newRig(t)
	rg.k.Go("t", func(p *sim.Proc) {
		rg.rt.PullImage(p, "web:1")
		a := webConfig("a", 0)
		a.Labels = map[string]string{"edge.service": "svc1", "role": "web"}
		b := webConfig("b", 0)
		b.Labels = map[string]string{"edge.service": "svc2"}
		create(p, rg.rt, a)
		create(p, rg.rt, b)
		got := rg.rt.List(map[string]string{"edge.service": "svc1"})
		if len(got) != 1 || got[0].Name() != "a" {
			t.Errorf("List = %v", got)
		}
		all := rg.rt.List(nil)
		if len(all) != 2 || all[0].Name() != "a" || all[1].Name() != "b" {
			t.Errorf("List(nil) = %v", all)
		}
	})
	rg.k.Run()
}
