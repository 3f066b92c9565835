package docker

import (
	"errors"
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

const twoContainerYAML = `
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
      - name: writer
        image: env-writer-py
`

type rig struct {
	k      *sim.Kernel
	node   *simnet.Host
	client *simnet.Host
	rt     *container.Runtime
	eng    *Engine
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	node := simnet.NewHost(n, "egs", "10.0.0.1")
	cli := simnet.NewHost(n, "client", "10.0.0.2")
	regHost := simnet.NewHost(n, "hub", "198.51.100.1")
	r := simnet.NewRouter(n, "r")
	_, a := node.AttachTo(r, simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	_, b := cli.AttachTo(r, simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 1 * simnet.Gbps})
	_, c := regHost.AttachTo(r, simnet.LinkConfig{Latency: 15 * time.Millisecond, Bandwidth: 400 * simnet.Mbps})
	r.AddRoute(node.IP(), a)
	r.AddRoute(cli.IP(), b)
	r.AddRoute(regHost.IP(), c)

	srv := registry.NewServer(regHost, registry.ServerConfig{BlobLatency: 50 * time.Millisecond})
	srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{
		{Digest: "nginx-0", Size: 74 * simnet.MiB},
		{Digest: "nginx-1", Size: 58 * simnet.MiB},
		{Digest: "nginx-2", Size: 3 * simnet.MiB},
	}})
	srv.Add(registry.Image{Ref: "env-writer-py", Layers: []registry.Layer{
		{Digest: "py-0", Size: 46 * simnet.MiB},
	}})
	res := registry.NewResolver()
	res.AddPrefix("", regHost.IP())
	images := registry.NewClient(node, res)
	rt := container.NewRuntime(node, images)
	behaviors := cluster.StaticBehaviors{
		"nginx:1.23.2":  {InitDelay: 60 * time.Millisecond, ServiceTime: 300 * time.Microsecond, RespSize: simnet.KiB},
		"env-writer-py": {InitDelay: 300 * time.Millisecond},
	}
	return &rig{k: k, node: node, client: cli, rt: rt, eng: New("egs-docker", rt, behaviors)}
}

func annotated(t *testing.T, src, domain string) *spec.Annotated {
	t.Helper()
	def, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: domain, VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFullPhasesAndServe(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	var inst cluster.Instance
	var reqErr error
	var status int
	rg.k.Go("driver", func(p *sim.Proc) {
		if rg.eng.HasImages(a) {
			t.Error("images cached before pull")
		}
		if err := rg.eng.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		if !rg.eng.HasImages(a) {
			t.Error("images missing after pull")
		}
		if err := rg.eng.Create(p, a); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if rg.eng.Running(a.UniqueName) {
			t.Error("running after create (should be scaled to zero)")
		}
		var err error
		inst, err = rg.eng.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		// Probe until the port is open, then issue a request.
		for {
			if _, derr := rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0); derr == nil {
				break
			}
			p.Sleep(20 * time.Millisecond)
		}
		res, rerr := rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{Method: "GET"}, 0)
		reqErr = rerr
		if rerr == nil {
			status = res.Resp.Status
		}
	})
	rg.k.Run()
	if reqErr != nil || status != 200 {
		t.Fatalf("request err=%v status=%d", reqErr, status)
	}
	if inst.Cluster != "egs-docker" || inst.Addr != "10.0.0.1" || inst.Port < 32000 {
		t.Fatalf("instance = %+v", inst)
	}
}

func TestScaleUpIsFast(t *testing.T) {
	// With images cached and containers created, Docker scale-up must be
	// well under a second (paper fig. 11).
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	var dur time.Duration
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		start := p.Now()
		inst, err := rg.eng.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		for {
			if _, derr := rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0); derr == nil {
				break
			}
			p.Sleep(20 * time.Millisecond)
		}
		dur = p.Now() - start
	})
	rg.k.Run()
	if dur <= 0 || dur > time.Second {
		t.Fatalf("docker scale-up to ready = %v, want <1s", dur)
	}
}

func TestTwoContainerService(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, twoContainerYAML, "combo.example.com")
	var oneDur, twoDur time.Duration
	rg.k.Go("driver", func(p *sim.Proc) {
		// Baseline: single-container service.
		b := annotated(t, nginxYAML, "web.example.com")
		rg.eng.Pull(p, b)
		rg.eng.Create(p, b)
		start := p.Now()
		rg.eng.ScaleUp(p, b.UniqueName)
		oneDur = p.Now() - start

		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		start = p.Now()
		rg.eng.ScaleUp(p, a.UniqueName)
		twoDur = p.Now() - start

		if got := len(rg.rt.List(map[string]string{spec.EdgeServiceLabel: a.UniqueName})); got != 2 {
			t.Errorf("containers = %d, want 2", got)
		}
	})
	rg.k.Run()
	if twoDur <= oneDur {
		t.Fatalf("two-container scale-up (%v) not slower than one (%v)", twoDur, oneDur)
	}
}

func TestScaleDownClosesEndpoint(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	var dialErr error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		inst, _ := rg.eng.ScaleUp(p, a.UniqueName)
		p.Sleep(time.Second)
		if err := rg.eng.ScaleDown(p, a.UniqueName); err != nil {
			t.Errorf("scaledown: %v", err)
		}
		if rg.eng.Running(a.UniqueName) {
			t.Error("running after scale down")
		}
		if !rg.eng.Exists(a.UniqueName) {
			t.Error("service gone after scale down (should stay created)")
		}
		if _, ok := rg.eng.Endpoint(a.UniqueName); ok {
			t.Error("endpoint still advertised after scale down")
		}
		_, dialErr = rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	if !errors.Is(dialErr, simnet.ErrConnRefused) {
		t.Fatalf("dial after scaledown = %v, want refused", dialErr)
	}
}

func TestScaleUpAgainReusesPort(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		i1, _ := rg.eng.ScaleUp(p, a.UniqueName)
		p.Sleep(time.Second)
		rg.eng.ScaleDown(p, a.UniqueName)
		i2, err := rg.eng.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("rescale: %v", err)
		}
		if i1.Port != i2.Port {
			t.Errorf("port changed across restart: %d -> %d", i1.Port, i2.Port)
		}
	})
	rg.k.Run()
}

func TestRemoveService(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		rg.eng.ScaleUp(p, a.UniqueName)
		p.Sleep(500 * time.Millisecond)
		if err := rg.eng.Remove(p, a.UniqueName); err != nil {
			t.Errorf("remove: %v", err)
		}
		if rg.eng.Exists(a.UniqueName) {
			t.Error("service exists after remove")
		}
		if got := rg.rt.List(map[string]string{spec.EdgeServiceLabel: a.UniqueName}); len(got) != 0 {
			t.Errorf("containers remain after remove: %v", got)
		}
	})
	rg.k.Run()
}

func TestErrorsOnUnknownService(t *testing.T) {
	rg := newRig(t)
	rg.k.Go("driver", func(p *sim.Proc) {
		if _, err := rg.eng.ScaleUp(p, "ghost"); !errors.Is(err, cluster.ErrNotCreated) {
			t.Errorf("scaleup err = %v", err)
		}
		if err := rg.eng.ScaleDown(p, "ghost"); !errors.Is(err, cluster.ErrNotCreated) {
			t.Errorf("scaledown err = %v", err)
		}
		if err := rg.eng.Remove(p, "ghost"); !errors.Is(err, cluster.ErrUnknownService) {
			t.Errorf("remove err = %v", err)
		}
	})
	rg.k.Run()
}

func TestCreateTwiceFails(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, nginxYAML, "web.example.com")
	var err error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		err = rg.eng.Create(p, a)
	})
	rg.k.Run()
	if !errors.Is(err, cluster.ErrAlreadyExists) {
		t.Fatalf("err = %v, want ErrAlreadyExists", err)
	}
}

func TestServicesSorted(t *testing.T) {
	rg := newRig(t)
	rg.k.Go("driver", func(p *sim.Proc) {
		b := annotated(t, nginxYAML, "bbb.example.com")
		a := annotated(t, nginxYAML, "aaa.example.com")
		rg.eng.Pull(p, a)
		rg.eng.Create(p, b)
		rg.eng.Create(p, a)
		got := rg.eng.Services()
		if len(got) != 2 || got[0] != "edge-aaa-example-com-80" {
			t.Errorf("Services = %v", got)
		}
	})
	rg.k.Run()
}

func TestEdgeServiceLabelQuery(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, twoContainerYAML, "combo.example.com")
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.eng.Pull(p, a)
		rg.eng.Create(p, a)
		got := rg.rt.List(map[string]string{spec.EdgeServiceLabel: a.UniqueName})
		if len(got) != 2 {
			t.Errorf("label query returned %d containers, want 2", len(got))
		}
	})
	rg.k.Run()
}
