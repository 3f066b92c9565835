package core_test

import (
	"strings"
	"testing"
	"time"

	"transparentedge/internal/core"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

func TestRegisterServiceDuplicateAddress(t *testing.T) {
	rg := newMobilityRig(t)
	reg := spec.Registration{Domain: "a.example.com", VIP: "203.0.113.10", Port: 80}
	if _, err := rg.ctrl.RegisterService(nginxYAML, reg); err != nil {
		t.Fatal(err)
	}
	reg2 := spec.Registration{Domain: "b.example.com", VIP: "203.0.113.10", Port: 80}
	if _, err := rg.ctrl.RegisterService(nginxYAML, reg2); err == nil {
		t.Fatal("duplicate VIP:port accepted")
	}
	// Same VIP on a different port is a different service.
	reg3 := spec.Registration{Domain: "c.example.com", VIP: "203.0.113.10", Port: 443}
	if _, err := rg.ctrl.RegisterService(nginxYAML, reg3); err != nil {
		t.Fatalf("different port rejected: %v", err)
	}
}

func TestRegisterServiceBadYAML(t *testing.T) {
	rg := newMobilityRig(t)
	if _, err := rg.ctrl.RegisterService("kind: Service\n", spec.Registration{VIP: "1.1.1.1", Port: 80}); err == nil {
		t.Fatal("service-only YAML accepted as deployment")
	}
	if _, err := rg.ctrl.RegisterService("a: [unterminated\n", spec.Registration{VIP: "1.1.1.2", Port: 80}); err == nil {
		t.Fatal("invalid YAML accepted")
	}
}

func TestEnsureDeployedErrors(t *testing.T) {
	rg := newMobilityRig(t)
	a, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	rg.k.Go("driver", func(p *sim.Proc) {
		if _, err := rg.ctrl.EnsureDeployed(p, "no-such-cluster", a.UniqueName); err == nil ||
			!strings.Contains(err.Error(), "unknown cluster") {
			t.Errorf("err = %v, want unknown cluster", err)
		}
		if _, err := rg.ctrl.EnsureDeployed(p, "egs-docker", "no-such-service"); err == nil ||
			!strings.Contains(err.Error(), "unknown service") {
			t.Errorf("err = %v, want unknown service", err)
		}
		if err := rg.ctrl.ScaleDownService(p, "no-such-cluster", a.UniqueName); err == nil {
			t.Error("ScaleDownService on unknown cluster accepted")
		}
		if err := rg.ctrl.RemoveService(p, "no-such-cluster", a.UniqueName); err == nil {
			t.Error("RemoveService on unknown cluster accepted")
		}
	})
	rg.k.RunUntil(time.Minute)
}

func TestServiceLookupAndNames(t *testing.T) {
	rg := newMobilityRig(t)
	a, _ := rg.ctrl.RegisterService(nginxYAML, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80})
	got, ok := rg.ctrl.Service("203.0.113.10", 80)
	if !ok || got.UniqueName != a.UniqueName {
		t.Fatalf("Service() = %v, %v", got, ok)
	}
	if _, ok := rg.ctrl.Service("203.0.113.10", 81); ok {
		t.Fatal("lookup on wrong port succeeded")
	}
	names := rg.ctrl.ServiceNames()
	if len(names) != 1 || names[0] != a.UniqueName {
		t.Fatalf("ServiceNames = %v", names)
	}
}

func TestSchedulerWithNoClustersForwardsToCloud(t *testing.T) {
	// A controller with no clusters must forward held requests toward the
	// cloud instead of deadlocking.
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := newBareSwitch(n)
	ue := simnet.NewHost(n, "ue", "10.0.1.1")
	sw.AttachHost(ue, 2, simnet.LinkConfig{Latency: time.Millisecond})
	cloud := simnet.NewHost(n, "cloud", "203.0.113.10")
	sw.AttachHost(cloud, 3, simnet.LinkConfig{Latency: 10 * time.Millisecond})
	cloud.ServeHTTPAsync(80, func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
		c.Respond(&simnet.HTTPResponse{Status: 200, Body: "cloud"})
	})
	probe := simnet.NewHost(n, "probe", "10.0.0.9")
	sw.AttachHost(probe, 4, simnet.LinkConfig{Latency: time.Millisecond})

	ctrl := core.New(k, probe, core.DefaultConfig())
	ctrl.AddSwitch(sw)
	if _, err := ctrl.RegisterService(nginxYAML, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80}); err != nil {
		t.Fatal(err)
	}
	var body any
	k.Go("ue", func(p *sim.Proc) {
		res, err := ue.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		body = res.Resp.Body
	})
	k.RunUntil(time.Minute)
	if body != "cloud" {
		t.Fatalf("body = %v, want cloud fallback", body)
	}
	if ctrl.Stats.CloudForwards != 1 {
		t.Fatalf("cloud forwards = %d", ctrl.Stats.CloudForwards)
	}
}

func TestAutoScaleDownCancelledByFreshFlow(t *testing.T) {
	// The idle-instance callback re-checks before scaling down: a flow
	// that arrives between expiry and the check must keep the service up.
	rg := newMobilityRig(t)
	// Rebuild controller with auto scale-down and tiny memory timeout.
	cfg := core.DefaultConfig()
	cfg.AutoScaleDown = true
	cfg.MemoryIdleTimeout = 2 * time.Second
	cfg.SwitchIdleTimeout = time.Second
	ctrl := core.New(rg.k, rg.egs, cfg)
	ctrl.AddSwitch(rg.gnb1)
	ctrl.AddSwitch(rg.gnb2)
	ctrl.AddCluster(rg.eng, "docker")
	a, err := ctrl.RegisterService(nginxYAML, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.20", Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	rg.k.Go("ue", func(p *sim.Proc) {
		// Keep requesting every 1.5s: switch flows expire (1s idle) but
		// memory (2s idle) is always refreshed just in time.
		for i := 0; i < 10; i++ {
			if _, err := rg.client.HTTPGet(p, "203.0.113.20", 80, &simnet.HTTPRequest{}, 0); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			p.Sleep(1500 * time.Millisecond)
		}
		if !rg.eng.Running(a.UniqueName) {
			t.Error("service scaled down while actively used")
		}
	})
	rg.k.RunUntil(5 * time.Minute)
	// After the client stops, the memory drains and the service scales
	// down.
	if rg.eng.Running(a.UniqueName) {
		t.Fatal("idle service still running at the end")
	}
}
