package serverless

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

const wasmYAML = `
spec:
  template:
    spec:
      containers:
      - name: fn
        image: web:wasm
        ports:
        - containerPort: 80
`

const twoFnYAML = `
spec:
  template:
    spec:
      containers:
      - name: a
        image: web:wasm
      - name: b
        image: web:wasm
`

type rig struct {
	k      *sim.Kernel
	node   *simnet.Host
	client *simnet.Host
	pl     *Platform
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	node := simnet.NewHost(n, "egs", "10.0.0.1")
	cli := simnet.NewHost(n, "client", "10.0.0.2")
	regHost := simnet.NewHost(n, "hub", "198.51.100.1")
	r := simnet.NewRouter(n, "r")
	_, a := node.AttachTo(r, simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps})
	_, b := cli.AttachTo(r, simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps})
	_, c := regHost.AttachTo(r, simnet.LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: 100 * simnet.Mbps})
	r.AddRoute(node.IP(), a)
	r.AddRoute(cli.IP(), b)
	r.AddRoute(regHost.IP(), c)
	srv := registry.NewServer(regHost, registry.ServerConfig{})
	srv.Add(registry.Image{Ref: "web:wasm", Layers: []registry.Layer{{Digest: "w0", Size: 60 * simnet.KiB}}})
	res := registry.NewResolver()
	res.AddPrefix("", regHost.IP())
	modules := registry.NewClient(node, res)
	behaviors := cluster.StaticBehaviors{
		"web:wasm": {InitDelay: 500 * time.Microsecond, ServiceTime: 150 * time.Microsecond, RespSize: 256},
	}
	return &rig{k: k, node: node, client: cli, pl: New("egs-serverless", node, modules, behaviors)}
}

func annotated(t *testing.T, src string) *spec.Annotated {
	t.Helper()
	def, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: "fn.example.com", VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestColdStartIsMilliseconds(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var scaleUp, toReady time.Duration
	rg.k.Go("driver", func(p *sim.Proc) {
		if err := rg.pl.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		if err := rg.pl.Create(p, a); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		start := p.Now()
		inst, err := rg.pl.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Errorf("scaleup: %v", err)
			return
		}
		scaleUp = p.Now() - start
		for {
			if _, derr := rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0); derr == nil {
				break
			}
			p.Sleep(time.Millisecond)
		}
		toReady = p.Now() - start
	})
	rg.k.Run()
	// The whole point: cold start two orders of magnitude below container
	// starts (which are ≈400 ms).
	if scaleUp > 20*time.Millisecond {
		t.Fatalf("scale-up = %v, want ~12ms", scaleUp)
	}
	if toReady > 30*time.Millisecond {
		t.Fatalf("ready after %v, want low tens of ms", toReady)
	}
	if rg.pl.ColdStarts != 1 {
		t.Fatalf("cold starts = %d", rg.pl.ColdStarts)
	}
}

func TestServesRequests(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var status int
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		inst, _ := rg.pl.ScaleUp(p, a.UniqueName)
		p.Sleep(5 * time.Millisecond)
		res, err := rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		status = res.Resp.Status
	})
	rg.k.Run()
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
}

func TestMultiContainerRejected(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, twoFnYAML)
	var err error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		err = rg.pl.Create(p, a)
	})
	rg.k.Run()
	if err == nil {
		t.Fatal("two-container service accepted as a single function")
	}
}

func TestScaleDownClosesEndpoint(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var dialErr error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		inst, _ := rg.pl.ScaleUp(p, a.UniqueName)
		p.Sleep(10 * time.Millisecond)
		if err := rg.pl.ScaleDown(p, a.UniqueName); err != nil {
			t.Errorf("scaledown: %v", err)
		}
		if _, ok := rg.pl.Endpoint(a.UniqueName); ok {
			t.Error("endpoint after scale down")
		}
		_, dialErr = rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	if !errors.Is(dialErr, simnet.ErrConnRefused) {
		t.Fatalf("dial after scaledown = %v, want refused", dialErr)
	}
}

func TestStaleInstantiationIgnored(t *testing.T) {
	// Scale down before the (tiny) init completes; the stale init event
	// must not open the port.
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var dialErr error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		inst, _ := rg.pl.ScaleUp(p, a.UniqueName)
		rg.pl.ScaleDown(p, a.UniqueName) // before InitDelay elapses
		p.Sleep(50 * time.Millisecond)
		_, dialErr = rg.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 0)
	})
	rg.k.Run()
	if !errors.Is(dialErr, simnet.ErrConnRefused) {
		t.Fatalf("dial = %v, want refused (stale init leaked a listener)", dialErr)
	}
}

func TestRemoveAndRecreate(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		rg.pl.ScaleUp(p, a.UniqueName)
		p.Sleep(10 * time.Millisecond)
		if err := rg.pl.Remove(p, a.UniqueName); err != nil {
			t.Errorf("remove: %v", err)
		}
		if rg.pl.Exists(a.UniqueName) {
			t.Error("function exists after remove")
		}
		if err := rg.pl.Create(p, a); err != nil {
			t.Errorf("recreate: %v", err)
		}
	})
	rg.k.Run()
}

func TestErrorsOnUnknown(t *testing.T) {
	rg := newRig(t)
	rg.k.Go("driver", func(p *sim.Proc) {
		if _, err := rg.pl.ScaleUp(p, "ghost"); !errors.Is(err, cluster.ErrNotCreated) {
			t.Errorf("scaleup err = %v", err)
		}
		if err := rg.pl.Remove(p, "ghost"); !errors.Is(err, cluster.ErrUnknownService) {
			t.Errorf("remove err = %v", err)
		}
	})
	rg.k.Run()
}

func TestCreateRequiresModule(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var err error
	rg.k.Go("driver", func(p *sim.Proc) {
		err = rg.pl.Create(p, a) // no pull
	})
	rg.k.Run()
	if err == nil {
		t.Fatal("create without module accepted")
	}
}

func TestPullUnknownModule(t *testing.T) {
	rg := newRig(t)
	def, _ := spec.Parse(`
spec:
  template:
    spec:
      containers:
      - name: fn
        image: ghost:wasm
`)
	a, _ := spec.Annotate(def, spec.Registration{Domain: "x.example.com", VIP: "203.0.113.11", Port: 80}, spec.Options{})
	var err error
	rg.k.Go("driver", func(p *sim.Proc) { err = rg.pl.Pull(p, a) })
	rg.k.Run()
	if err == nil {
		t.Fatal("pull of unknown module accepted")
	}
}

func TestScaleUpIdempotentKeepsPort(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		i1, _ := rg.pl.ScaleUp(p, a.UniqueName)
		i2, err := rg.pl.ScaleUp(p, a.UniqueName)
		if err != nil || i1.Port != i2.Port {
			t.Errorf("idempotent scaleup: %v / %d vs %d", err, i1.Port, i2.Port)
		}
		if rg.pl.ColdStarts != 1 {
			t.Errorf("cold starts = %d, want 1", rg.pl.ColdStarts)
		}
		if _, ok := rg.pl.Endpoint("ghost"); ok {
			t.Error("endpoint for unknown function")
		}
		if got := rg.pl.Services(); len(got) != 1 || got[0] != a.UniqueName {
			t.Errorf("services = %v", got)
		}
	})
	rg.k.Run()
}

func TestCreateDuplicateFails(t *testing.T) {
	rg := newRig(t)
	a := annotated(t, wasmYAML)
	var err error
	rg.k.Go("driver", func(p *sim.Proc) {
		rg.pl.Pull(p, a)
		rg.pl.Create(p, a)
		err = rg.pl.Create(p, a)
	})
	rg.k.Run()
	if !errors.Is(err, cluster.ErrAlreadyExists) {
		t.Fatalf("err = %v", err)
	}
}
