package testbed

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/core"
	"transparentedge/internal/faults"
	"transparentedge/internal/kube"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

func TestOnDemandWithWaitingDocker(t *testing.T) {
	tb := New(Options{Seed: 1, EnableDocker: true})
	a, reg, err := tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		t.Fatal(err)
	}
	var first, second *simnet.HTTPResult
	tb.K.Go("client", func(p *sim.Proc) {
		var err error
		first, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("first request: %v", err)
			return
		}
		second, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("second request: %v", err)
		}
	})
	tb.K.RunUntil(time.Minute)
	if first == nil || second == nil {
		t.Fatal("requests did not complete")
	}
	// Cached image + created-on-demand: the initial request includes pull
	// though — cold cache! First request = pull + create + scale-up.
	if first.Total < time.Second {
		t.Errorf("first (cold) request = %v, expected pull-dominated seconds", first.Total)
	}
	if second.Total > 5*time.Millisecond {
		t.Errorf("second request = %v, want ~1ms (flow installed)", second.Total)
	}
	if !tb.Docker.Running(a.UniqueName) {
		t.Error("service not running on docker after request")
	}
	recs := tb.Ctrl.RecordsFor("egs-docker", a.UniqueName)
	if len(recs) != 1 || !recs[0].DidPull || !recs[0].DidCreate || !recs[0].DidScaleUp {
		t.Errorf("records = %+v", recs)
	}
	if tb.Ctrl.Stats.PacketIns != 1 {
		t.Errorf("packet-ins = %d, want 1 (second request used installed flow)", tb.Ctrl.Stats.PacketIns)
	}
}

func TestWarmScaleUpDockerUnderOneSecond(t *testing.T) {
	// The paper's fig. 11 condition: image cached, containers created;
	// only scale-up on the request path.
	tb := New(Options{Seed: 1, EnableDocker: true})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var res *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		// Warm up: deploy, then scale down (leaves image + containers).
		if _, err := tb.Ctrl.EnsureDeployed(p, "egs-docker", a.UniqueName); err != nil {
			t.Errorf("warmup: %v", err)
			return
		}
		tb.Ctrl.ScaleDownService(p, "egs-docker", a.UniqueName)
		p.Sleep(time.Second)
		var err error
		res, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(5 * time.Minute)
	if res == nil {
		t.Fatal("no response")
	}
	if res.Total > time.Second {
		t.Fatalf("docker scale-up total = %v, want <1s (paper fig. 11)", res.Total)
	}
	recs := tb.Ctrl.RecordsFor("egs-docker", a.UniqueName)
	if len(recs) != 2 || recs[1].DidPull || recs[1].DidCreate || !recs[1].DidScaleUp {
		t.Fatalf("records = %+v, want the warm-up's and then a scale-up only", recs)
	}
}

func TestWarmScaleUpKubeAroundThreeSeconds(t *testing.T) {
	tb := New(Options{Seed: 1, EnableKube: true})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var res *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		if _, err := tb.Ctrl.EnsureDeployed(p, "egs-k8s", a.UniqueName); err != nil {
			t.Errorf("warmup: %v", err)
			return
		}
		tb.Ctrl.ScaleDownService(p, "egs-k8s", a.UniqueName)
		p.Sleep(10 * time.Second) // let the pod terminate
		var err error
		res, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if res == nil {
		t.Fatal("no response")
	}
	if res.Total < 2*time.Second || res.Total > 4*time.Second {
		t.Fatalf("k8s scale-up total = %v, want ~3s (paper fig. 11)", res.Total)
	}
}

func TestWarmRequestAboutOneMillisecond(t *testing.T) {
	// Fig. 16: instance already running.
	tb := New(Options{Seed: 1, EnableDocker: true})
	a, reg, _ := tb.RegisterCatalogService(catalog.Asm)
	var res *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		tb.Ctrl.EnsureDeployed(p, "egs-docker", a.UniqueName)
		// Prime the flow with one request, then measure.
		tb.Request(p, 0, reg, catalog.Asm, 0)
		var err error
		res, err = tb.Request(p, 0, reg, catalog.Asm, 0)
		if err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(5 * time.Minute)
	if res == nil {
		t.Fatal("no response")
	}
	if res.Total > 3*time.Millisecond {
		t.Fatalf("warm request = %v, want ~1ms (paper fig. 16)", res.Total)
	}
}

func TestNoWaitForwardsToCloudThenEdge(t *testing.T) {
	sched, err := core.NewScheduler("no-wait")
	if err != nil {
		t.Fatal(err)
	}
	tb := New(Options{Seed: 1, EnableDocker: true, Scheduler: sched})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var first, later *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		var err error
		first, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("first: %v", err)
			return
		}
		// Give the background deployment time to finish, let the switch
		// flow expire so the next packet-in consults the (redirected)
		// memory... the flow is pass-through to the cloud with a 10s idle
		// timeout, so wait it out.
		p.Sleep(30 * time.Second)
		later, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("later: %v", err)
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if first == nil || later == nil {
		t.Fatal("requests did not complete")
	}
	// First request was NOT held: it went to the cloud (tens of ms — the
	// 8ms uplink + 2ms origin link round trips), far below a deployment.
	if first.Total > 200*time.Millisecond {
		t.Fatalf("first (no-wait) = %v, want cloud-forwarded tens of ms", first.Total)
	}
	if tb.Ctrl.Stats.CloudForwards == 0 {
		t.Error("no cloud forward recorded")
	}
	// The edge instance was deployed in the background and the later
	// request is served at the edge.
	if !tb.Docker.Running(a.UniqueName) {
		t.Error("background deployment did not run")
	}
	// The later request pays one controller dispatch (incl. cluster state
	// queries) before reaching the edge instance.
	if later.Total > 30*time.Millisecond {
		t.Fatalf("later request = %v, want edge latency", later.Total)
	}
}

func TestFlowMemoryServesAfterSwitchFlowExpiry(t *testing.T) {
	tb := New(Options{
		Seed: 1, EnableDocker: true,
		SwitchIdleTimeout: time.Second,
		MemoryIdleTimeout: 5 * time.Minute,
	})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var second *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		tb.Ctrl.EnsureDeployed(p, "egs-docker", a.UniqueName)
		tb.Request(p, 0, reg, catalog.Nginx, 0)
		p.Sleep(5 * time.Second) // switch flow expired; memory alive
		var err error
		second, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("second: %v", err)
		}
	})
	tb.K.RunUntil(time.Minute)
	if second == nil {
		t.Fatal("no response")
	}
	if tb.Ctrl.Stats.MemoryServed == 0 {
		t.Fatal("FlowMemory did not serve the returning client")
	}
	// Memory-served requests skip scheduling and deployment: only a
	// controller round trip is added.
	if second.Total > 5*time.Millisecond {
		t.Fatalf("memory-served request = %v", second.Total)
	}
}

func TestAutoScaleDownAfterMemoryExpiry(t *testing.T) {
	tb := New(Options{
		Seed: 1, EnableDocker: true,
		SwitchIdleTimeout: time.Second,
		MemoryIdleTimeout: 10 * time.Second,
		AutoScaleDown:     true,
	})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	tb.K.Go("driver", func(p *sim.Proc) {
		if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(2 * time.Minute)
	if tb.Docker.Running(a.UniqueName) {
		t.Fatal("idle service not scaled down after FlowMemory expiry")
	}
	if !tb.Docker.Exists(a.UniqueName) {
		t.Fatal("scale-down removed the service entirely")
	}
}

func TestHybridDockerFirstThenKubernetes(t *testing.T) {
	sched, err := core.NewScheduler("docker-first")
	if err != nil {
		t.Fatal(err)
	}
	tb := New(Options{
		Seed: 1, EnableDocker: true, EnableKube: true, Scheduler: sched,
		SwitchIdleTimeout: 2 * time.Second,
	})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var first, later *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		// Pre-pull so the first request measures the §VII contrast
		// (start times), not the shared pull.
		tb.Docker.Pull(p, a)
		var err error
		first, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("first: %v", err)
			return
		}
		p.Sleep(time.Minute) // background K8s deployment + flow expiry
		later, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("later: %v", err)
			return
		}
		// Inspect the memory now, before idle expiry clears it.
		ep, _ := tb.Kube.Endpoint(a.UniqueName)
		found := false
		for _, e := range tb.Ctrl.Memory.Entries() {
			if e.Instance.Cluster == "egs-k8s" && e.Instance.Port == ep.Port {
				found = true
			}
		}
		if !found {
			t.Errorf("memory entries not pointing at kubernetes: %+v", tb.Ctrl.Memory.Entries())
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if first == nil || later == nil {
		t.Fatal("requests did not complete")
	}
	// First answered by Docker: sub-second.
	if first.Total > 1200*time.Millisecond {
		t.Fatalf("first (docker) = %v, want <1s", first.Total)
	}
	// Kubernetes took over for future requests.
	if !tb.Kube.Running(a.UniqueName) {
		t.Fatal("kubernetes instance not deployed in background")
	}
	if tb.Ctrl.Stats.Redirections == 0 {
		t.Fatal("FlowMemory was not redirected to the kubernetes instance")
	}
	if later.Total > 5*time.Millisecond {
		t.Fatalf("later request = %v, want edge latency via k8s", later.Total)
	}
}

func TestPrivateRegistrySpeedsUpPull(t *testing.T) {
	pull := func(private bool) time.Duration {
		tb := New(Options{Seed: 1, EnableDocker: true, UsePrivateRegistry: private})
		a, _, _ := tb.RegisterCatalogService(catalog.Nginx)
		var d time.Duration
		tb.K.Go("driver", func(p *sim.Proc) {
			t0 := p.Now()
			if err := tb.Docker.Pull(p, a); err != nil {
				t.Errorf("pull: %v", err)
			}
			d = p.Now() - t0
		})
		tb.K.RunUntil(5 * time.Minute)
		return d
	}
	hub := pull(false)
	priv := pull(true)
	saving := hub - priv
	// Fig. 13: "pull times improve by about 1.5 to 2 seconds".
	if saving < time.Second || saving > 3*time.Second {
		t.Fatalf("private registry saving = %v (hub %v, private %v), want ~1.5-2s", saving, hub, priv)
	}
}

func TestSharedRuntimeBetweenDockerAndKube(t *testing.T) {
	// Both clusters run over the same containerd: an image pulled for
	// Docker is cached for Kubernetes (paper: same containerd on the EGS).
	tb := New(Options{Seed: 1, EnableDocker: true, EnableKube: true})
	a, _, _ := tb.RegisterCatalogService(catalog.Nginx)
	tb.K.Go("driver", func(p *sim.Proc) {
		if err := tb.Docker.Pull(p, a); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		if !tb.Kube.HasImages(a) {
			t.Error("kube cluster does not see the shared image cache")
		}
	})
	tb.K.RunUntil(5 * time.Minute)
}

func TestConcurrentClientsShareOneDeployment(t *testing.T) {
	// Several clients hitting the same cold service must trigger exactly
	// one deployment (fig. 10's dedup requirement), and all get answers.
	tb := New(Options{Seed: 1, EnableDocker: true})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	done := 0
	for i := 0; i < 5; i++ {
		i := i
		tb.K.Go("client", func(p *sim.Proc) {
			if _, err := tb.Request(p, i, reg, catalog.Nginx, 0); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			done++
		})
	}
	tb.K.RunUntil(time.Minute)
	if done != 5 {
		t.Fatalf("responses = %d, want 5", done)
	}
	recs := tb.Ctrl.RecordsFor("egs-docker", a.UniqueName)
	deployed := 0
	for _, r := range recs {
		if r.DidScaleUp {
			deployed++
		}
	}
	if deployed != 1 {
		t.Fatalf("deployments = %d, want 1 (deduplicated)", deployed)
	}
	if got := len(tb.Runtime.List(map[string]string{spec.EdgeServiceLabel: a.UniqueName})); got != 1 {
		t.Fatalf("containers = %d, want 1", got)
	}
}

func TestUnregisteredAddressPassesThrough(t *testing.T) {
	// Traffic to a non-registered cloud address must flow normally (the
	// transparent edge intercepts only registered services).
	tb := New(Options{Seed: 1, EnableDocker: true})
	other := simnet.NewHost(tb.Net, "plain-cloud", "203.0.113.200")
	tb.cloud.attach(other, simnet.LinkConfig{Latency: 2 * time.Millisecond, Bandwidth: simnet.Gbps})
	other.ServeHTTPAsync(80, func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
		c.Respond(&simnet.HTTPResponse{Status: 200, Body: "plain"})
	})
	var res *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		var err error
		res, err = tb.Clients[0].HTTPGet(p, other.IP(), 80, &simnet.HTTPRequest{}, 0)
		if err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(time.Minute)
	if res == nil || res.Resp.Body != "plain" {
		t.Fatalf("res = %+v", res)
	}
	if tb.Ctrl.Stats.PacketIns != 0 {
		t.Fatalf("packet-ins = %d for unregistered traffic", tb.Ctrl.Stats.PacketIns)
	}
}

func TestResNetSlowestWarmService(t *testing.T) {
	tb := New(Options{Seed: 1, EnableDocker: true})
	a, reg, _ := tb.RegisterCatalogService(catalog.ResNet)
	var warm *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		tb.Ctrl.EnsureDeployed(p, "egs-docker", a.UniqueName)
		tb.Request(p, 0, reg, catalog.ResNet, 0)
		var err error
		warm, err = tb.Request(p, 0, reg, catalog.ResNet, 0)
		if err != nil {
			t.Errorf("request: %v", err)
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if warm == nil {
		t.Fatal("no response")
	}
	// Fig. 16: ResNet requires significantly longer than the ~1ms of the
	// web servers (inference time + 83 KiB upload).
	if warm.Total < 100*time.Millisecond || warm.Total > 500*time.Millisecond {
		t.Fatalf("ResNet warm request = %v, want ~140-200ms", warm.Total)
	}
}

func TestRegisterUnknownServiceKey(t *testing.T) {
	tb := New(Options{Seed: 1, EnableDocker: true})
	if _, _, err := tb.RegisterCatalogService("Apache"); err == nil {
		t.Fatal("unknown catalog key accepted")
	}
}

func TestDialErrorsSurfaceOnTimeout(t *testing.T) {
	// A request with a timeout shorter than the deployment fails with
	// ErrTimeout instead of blocking forever.
	tb := New(Options{Seed: 1, EnableKube: true})
	_, reg, _ := tb.RegisterCatalogService(catalog.ResNet)
	var err error
	tb.K.Go("driver", func(p *sim.Proc) {
		_, err = tb.Request(p, 0, reg, catalog.ResNet, 2*time.Second)
	})
	tb.K.RunUntil(10 * time.Minute)
	if !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestFarEdgeServesWhileNearDeploys(t *testing.T) {
	// Fig. 3: the initial request goes to a running instance in a farther
	// edge; the optimal (near) edge deploys in the background and future
	// requests move there.
	sched, _ := core.NewScheduler("proximity")
	tb := New(Options{
		Seed: 1, EnableDocker: true, EnableFarEdge: true,
		Scheduler:         sched,
		SwitchIdleTimeout: 2 * time.Second,
	})
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	var first, later *simnet.HTTPResult
	var firstCluster, laterCluster string
	tb.K.Go("driver", func(p *sim.Proc) {
		// The far edge already runs the service (hierarchically higher
		// clusters are more likely to have it).
		if err := tb.FarDocker.Pull(p, a); err != nil {
			t.Errorf("far pull: %v", err)
			return
		}
		tb.FarDocker.Create(p, a)
		inst, _ := tb.FarDocker.ScaleUp(p, a.UniqueName)
		for !tb.FarRuntime.List(nil)[0].Ready() {
			p.Sleep(20 * time.Millisecond)
		}
		_ = inst
		var err error
		first, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("first: %v", err)
			return
		}
		for _, e := range tb.Ctrl.Memory.Entries() {
			firstCluster = e.Instance.Cluster
		}
		p.Sleep(time.Minute) // background deploy to near edge + flow expiry
		later, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
		if err != nil {
			t.Errorf("later: %v", err)
			return
		}
		for _, e := range tb.Ctrl.Memory.Entries() {
			laterCluster = e.Instance.Cluster
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if first == nil || later == nil {
		t.Fatal("requests incomplete")
	}
	// First served without waiting: no deployment in the request path.
	if first.Total > 100*time.Millisecond {
		t.Fatalf("first (far edge) = %v, want low ms (no waiting)", first.Total)
	}
	if firstCluster != "far-docker" {
		t.Fatalf("first served by %q, want far-docker", firstCluster)
	}
	if !tb.Docker.Running(a.UniqueName) {
		t.Fatal("near edge not deployed in background")
	}
	if laterCluster != "egs-docker" {
		t.Fatalf("later served by %q, want egs-docker (optimal)", laterCluster)
	}
	// The near edge is closer: later requests are faster than the first.
	if later.Total >= first.Total {
		t.Fatalf("later (%v) not faster than far-edge first (%v)", later.Total, first.Total)
	}
}

func TestPuntRuleSurvivesFlowReinstalls(t *testing.T) {
	// Regression: controller-assigned flow cookies must never collide
	// with the switch-assigned cookies of the punt rules. With a short
	// switch idle timeout, a returning client makes the controller delete
	// and re-install its redirect pair; service B's punt rule must still
	// be intact afterwards, so B's first request triggers a deployment
	// instead of silently passing through to the cloud.
	tb := New(Options{
		Seed: 1, EnableDocker: true,
		SwitchIdleTimeout: time.Second,
		MemoryIdleTimeout: 10 * time.Minute,
	})
	aA, regA, _ := tb.RegisterCatalogService(catalog.Nginx)
	aB, regB, _ := tb.RegisterCatalogService(catalog.Asm)
	_ = aA
	tb.K.Go("driver", func(p *sim.Proc) {
		// Service A: deploy, then re-trigger memory-served reinstalls.
		if _, err := tb.Request(p, 0, regA, catalog.Nginx, 0); err != nil {
			t.Errorf("A first: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			p.Sleep(5 * time.Second) // switch flow expires; memory serves
			if _, err := tb.Request(p, 0, regA, catalog.Nginx, 0); err != nil {
				t.Errorf("A repeat %d: %v", i, err)
				return
			}
		}
		if tb.Ctrl.Stats.MemoryServed == 0 {
			t.Error("expected memory-served reinstalls")
		}
		// Service B's first request must still reach the controller.
		if _, err := tb.Request(p, 1, regB, catalog.Asm, 0); err != nil {
			t.Errorf("B first: %v", err)
			return
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if !tb.Docker.Running(aB.UniqueName) {
		t.Fatal("service B was never deployed: its punt rule was deleted by a cookie collision")
	}
	if tb.Ctrl.Stats.CloudForwards != 0 {
		t.Fatalf("cloud forwards = %d, want 0", tb.Ctrl.Stats.CloudForwards)
	}
}

func TestDeploymentFailureFallsBackToCloud(t *testing.T) {
	// A registered service whose image exists in no registry cannot be
	// deployed; the controller must degrade gracefully and forward the
	// held request to the real cloud origin, which still answers.
	tb := New(Options{Seed: 1, EnableDocker: true})
	const ghostYAML = `
spec:
  template:
    spec:
      containers:
      - name: ghost
        image: ghost/unpublished:1
        ports:
        - containerPort: 80
`
	a, reg, err := tb.RegisterService(ghostYAML, "ghost.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var res *simnet.HTTPResult
	tb.K.Go("driver", func(p *sim.Proc) {
		var rerr error
		res, rerr = tb.Clients[0].HTTPGet(p, reg.VIP, reg.Port, &simnet.HTTPRequest{}, 0)
		if rerr != nil {
			t.Errorf("request: %v", rerr)
		}
	})
	tb.K.RunUntil(5 * time.Minute)
	if res == nil || res.Resp.Status != 200 {
		t.Fatalf("res = %+v, want cloud answer", res)
	}
	if tb.Ctrl.Stats.CloudForwards == 0 {
		t.Fatal("no cloud fallback recorded")
	}
	if tb.Docker.Running(a.UniqueName) {
		t.Fatal("service running despite missing image")
	}
	// The failed attempt is recorded with its error.
	failed := 0
	for _, r := range tb.Ctrl.Records() {
		if r.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no failed deployment record")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// The entire testbed is deterministic per seed: two runs of the same
	// scenario produce byte-identical stats and request timings.
	run := func() (core.Stats, []time.Duration) {
		tb := New(Options{Seed: 77, EnableDocker: true, EnableKube: true,
			Scheduler: core.DockerFirstScheduler{}, SwitchIdleTimeout: 2 * time.Second})
		_, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
		var totals []time.Duration
		tb.K.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				hr, err := tb.Request(p, i%len(tb.Clients), reg, catalog.Nginx, 0)
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				totals = append(totals, hr.Total)
				p.Sleep(7 * time.Second)
			}
		})
		tb.K.RunUntil(10 * time.Minute)
		return tb.Ctrl.Stats, totals
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("sample counts diverged: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("timing %d diverged: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestDeletePhaseRemovesImagesAndRepullWorks(t *testing.T) {
	// Fig. 4's optional Delete phase: deleting a service's cached images
	// frees the store; the next deployment pulls again. (Layer survival
	// across distinct images sharing blobs is covered by the registry
	// tests; here both services reference the same nginx image ref, so
	// deleting one deletes it for both.)
	tb := New(Options{Seed: 1, EnableDocker: true})
	combo, _, _ := tb.RegisterCatalogService(catalog.NginxPy)
	plain, _, _ := tb.RegisterCatalogService(catalog.Nginx)
	tb.K.Go("driver", func(p *sim.Proc) {
		t0 := p.Now()
		if err := tb.Docker.Pull(p, combo); err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		coldPull := p.Now() - t0
		// The plain service's image is now cached too (same ref).
		if !tb.Docker.HasImages(plain) {
			t.Error("plain nginx not cached after combo pull")
		}
		if err := tb.Ctrl.DeleteImages(p, "egs-docker", combo.UniqueName); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if tb.Docker.HasImages(combo) || tb.Docker.HasImages(plain) {
			t.Error("images still cached after delete")
		}
		// Re-pull is a full cold pull again.
		t0 = p.Now()
		if err := tb.Docker.Pull(p, combo); err != nil {
			t.Errorf("re-pull: %v", err)
			return
		}
		rePull := p.Now() - t0
		if rePull < coldPull/2 {
			t.Errorf("re-pull (%v) suspiciously fast vs cold (%v)", rePull, coldPull)
		}
	})
	tb.K.RunUntil(30 * time.Minute)
}

func TestDeleteImagesErrors(t *testing.T) {
	tb := New(Options{Seed: 1, EnableKube: true})
	a, _, _ := tb.RegisterCatalogService(catalog.Nginx)
	tb.K.Go("driver", func(p *sim.Proc) {
		if err := tb.Ctrl.DeleteImages(p, "nope", a.UniqueName); err == nil {
			t.Error("unknown cluster accepted")
		}
		if err := tb.Ctrl.DeleteImages(p, "egs-k8s", "nope"); err == nil {
			t.Error("unknown service accepted")
		}
		// The kube cluster does not implement ImageDeleter.
		if err := tb.Ctrl.DeleteImages(p, "egs-k8s", a.UniqueName); err == nil {
			t.Error("non-deleter cluster accepted")
		}
	})
	tb.K.RunUntil(time.Minute)
}

func TestRuntimeClassPlacement(t *testing.T) {
	// §VIII side-by-side: with Docker AND the serverless platform enabled,
	// a runtimeClassName:wasm service must land on the serverless
	// platform, and a regular container service on Docker.
	tb := New(Options{Seed: 1, EnableDocker: true, EnableServerless: true})
	ctr, ctrReg, _ := tb.RegisterCatalogService(catalog.Asm)
	fn, fnReg, _ := tb.RegisterCatalogService(catalog.AsmWasm)
	if fn.RuntimeClass != "wasm" || ctr.RuntimeClass != "" {
		t.Fatalf("runtime classes = %q / %q", fn.RuntimeClass, ctr.RuntimeClass)
	}
	tb.K.Go("driver", func(p *sim.Proc) {
		if _, err := tb.Request(p, 0, fnReg, catalog.AsmWasm, 0); err != nil {
			t.Errorf("wasm request: %v", err)
			return
		}
		if _, err := tb.Request(p, 1, ctrReg, catalog.Asm, 0); err != nil {
			t.Errorf("container request: %v", err)
			return
		}
	})
	tb.K.RunUntil(5 * time.Minute)
	if !tb.Serverless.Running(fn.UniqueName) {
		t.Error("wasm service not on the serverless platform")
	}
	if tb.Docker.Running(fn.UniqueName) {
		t.Error("wasm service deployed to docker")
	}
	if !tb.Docker.Running(ctr.UniqueName) {
		t.Error("container service not on docker")
	}
	if tb.Serverless.Running(ctr.UniqueName) {
		t.Error("container service deployed to the serverless platform")
	}
	if tb.Serverless.ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1", tb.Serverless.ColdStarts)
	}
}

// TestClusterOpCountsAgree: one Pull, Create, ScaleUp, ScaleDown and Remove
// of a service count one operation of each kind on every cluster type, so
// cluster_ops_total compares the three. Remove counts no scale-down of its
// own on any of them.
func TestClusterOpCountsAgree(t *testing.T) {
	reg := obs.NewRegistry()
	tb := New(Options{Seed: 1, EnableDocker: true, EnableKube: true, EnableServerless: true, Counters: reg})
	ctr, _, err := tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := tb.RegisterCatalogService(catalog.AsmWasm)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []struct {
		cl cluster.Cluster
		a  *spec.Annotated
	}{{tb.Docker, ctr}, {tb.Kube, ctr}, {tb.Serverless, fn}}
	tb.K.Go("driver", func(p *sim.Proc) {
		for _, c := range clusters {
			name := c.a.UniqueName
			for _, step := range []func() error{
				func() error { return c.cl.Pull(p, c.a) },
				func() error { return c.cl.Create(p, c.a) },
				func() error { _, err := c.cl.ScaleUp(p, name); return err },
				func() error { return c.cl.ScaleDown(p, name) },
				func() error { return c.cl.Remove(p, name) },
			} {
				if err := step(); err != nil {
					t.Errorf("%s: %v", c.cl.Name(), err)
					return
				}
			}
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	counts := reg.Map()
	for _, c := range clusters {
		for _, op := range []string{"pull", "create", "scale_up", "scale_down"} {
			key := `cluster_ops_total{cluster="` + c.cl.Name() + `",op="` + op + `"}`
			if got := counts[key]; got != 1 {
				t.Errorf("%s = %v, want 1", key, got)
			}
		}
	}
}

func TestCrashedInstanceIsRedeployedOnNextRequest(t *testing.T) {
	// Resilience: every Docker start crashes before its port opens. The
	// probe gives up after ProbeMaxWait, the dead instance is not kept, the
	// held request is answered by the cloud origin, and the next request
	// starts a fresh deployment instead of joining the dead one.
	reg := obs.NewRegistry()
	tb := New(Options{
		Seed: 1, EnableDocker: true,
		SwitchIdleTimeout: time.Second,
		ProbeMaxWait:      2 * time.Second,
		Faults:            &faults.Spec{Seed: 1, Clusters: map[string]faults.ClusterSpec{"egs-docker": {CrashProb: 1}}},
		Counters:          reg,
	})
	a, svc, _ := tb.RegisterCatalogService(catalog.Nginx)
	tb.K.Go("driver", func(p *sim.Proc) {
		for i := range 2 {
			if _, err := tb.Request(p, 0, svc, catalog.Nginx, 0); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			p.Sleep(5 * time.Second) // the cloud flow expires
		}
	})
	tb.K.RunUntil(10 * time.Minute)
	if tb.Docker.Running(a.UniqueName) {
		t.Error("crashed service reported running")
	}
	recs := tb.Ctrl.RecordsIncluding("egs-docker", a.UniqueName, true)
	if len(recs) != 2 {
		t.Fatalf("deployments = %d, want 2 (one per request)", len(recs))
	}
	for i, r := range recs {
		if !errors.Is(r.Err, core.ErrProbeTimeout) {
			t.Errorf("deployment %d: err = %v, want ErrProbeTimeout", i, r.Err)
		}
	}
	if got := reg.Counter(`faults_injected_total{cluster="egs-docker"}`).Value(); got != 2 {
		t.Errorf("faults_injected_total = %d, want 2 crashes", got)
	}
}

func TestBindTimeoutReleasesHeldRequestToCloud(t *testing.T) {
	// The service requests 16 cores of the 12-core Kubernetes node, so its
	// pod is never bound. The deployment must fail once the bind wait's bound
	// is reached — not poll forever — so that the request held behind it is
	// released to the cloud origin, and a later request starts a fresh
	// deployment instead of joining the dead one.
	tb := New(Options{Seed: 1, EnableKube: true})
	const heavyYAML = `
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
            cpu: 16
`
	a, reg, err := tb.RegisterService(heavyYAML, "heavy.example.com")
	if err != nil {
		t.Fatal(err)
	}
	var deployErr error
	var deployEnd sim.Time
	tb.K.Go("operator", func(p *sim.Proc) {
		_, deployErr = tb.Ctrl.EnsureDeployed(p, "egs-k8s", a.UniqueName)
		deployEnd = p.Now()
	})
	var heldEnd, secondStart, secondEnd sim.Time
	tb.K.Go("clients", func(p *sim.Proc) {
		p.Sleep(10 * time.Second) // the deployment is waiting for the bind
		if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
			t.Errorf("held request: %v", err)
			return
		}
		heldEnd = p.Now()
		secondStart = p.Now()
		if _, err := tb.Request(p, 1, reg, catalog.Nginx, 0); err != nil {
			t.Errorf("second request: %v", err)
			return
		}
		secondEnd = p.Now()
	})
	tb.K.RunUntil(30 * time.Minute)

	if !errors.Is(deployErr, kube.ErrBindTimeout) {
		t.Fatalf("EnsureDeployed err = %v, want kube.ErrBindTimeout", deployErr)
	}
	failed := tb.Ctrl.RecordsIncluding("egs-k8s", a.UniqueName, true)
	if len(failed) != 2 || failed[0].Err == nil || failed[1].Err == nil {
		t.Fatalf("records = %+v, want two failed deployments (the second request starts its own)", failed)
	}
	// ScaleUp makes three API requests, then lists pods — one request
	// latency each, one poll interval apart — until the bound has passed. The
	// latency and the interval are kube's calibration.
	lat, poll := 15*time.Millisecond, 50*time.Millisecond
	waitFrom := 3 * lat
	want := waitFrom + lat
	for want < waitFrom+core.DefaultProbeMaxWait {
		want += poll + lat
	}
	rec := failed[0]
	if rec.ScaleUp != want {
		t.Errorf("scale-up phase gave up after %v, want %v", rec.ScaleUp, want)
	}
	if got := rec.StartedAt + rec.Total(); deployEnd != got {
		t.Errorf("EnsureDeployed returned at %v, want %v (start + phases)", deployEnd, got)
	}
	if heldEnd < deployEnd || heldEnd > deployEnd+time.Second {
		t.Errorf("held request answered at %v, want just after the deployment failed at %v", heldEnd, deployEnd)
	}
	if d := secondEnd - secondStart; d < core.DefaultProbeMaxWait || d > core.DefaultProbeMaxWait+time.Second {
		t.Errorf("second request took %v, want a fresh bind wait of %v before the cloud answers", d, core.DefaultProbeMaxWait)
	}
	if tb.Ctrl.Stats.CloudFallbacks != 2 {
		t.Errorf("Stats.CloudFallbacks = %d, want 2", tb.Ctrl.Stats.CloudFallbacks)
	}
	if n := tb.K.Pending(); n > 16 {
		t.Errorf("%d events pending at the end: something still polls", n)
	}
}

// TestRequestBetweenTheTwoRuleDeadlines is the regression test of the lost
// requests: the last packet of an exchange the switch sees from the client
// (its FIN) comes after the last it sees from the instance (the response),
// so a forward and a reverse rewrite rule on clocks of their own run out at
// different instants, and a second request whose SYN reaches the switch
// between the two is admitted by the forward rule while nothing rewrites its
// SYN-ACK — the client, which dialed the cloud address, ignores the answer
// and waits for ever. Every instant of that window must serve the request
// transparently. The srv6 row passes on any design: a binding has one clock
// for both directions.
func TestRequestBetweenTheTwoRuleDeadlines(t *testing.T) {
	const idle = time.Second
	for _, backend := range []string{"openflow", "srv6"} {
		t.Run(backend, func(t *testing.T) {
			for _, quarter := range []time.Duration{1, 2, 3} {
				requestInWindow(t, backend, idle, quarter)
			}
		})
	}
}

// requestInWindow completes one request, issues a second whose SYN reaches
// the switch quarter/4 of the way between the reverse and the forward
// direction's idle deadlines, and checks that it was served transparently.
func requestInWindow(t *testing.T, backend string, idle, quarter time.Duration) {
	tb := New(Options{
		Seed: 1, EnableDocker: true, SteerBackend: backend,
		SwitchIdleTimeout: idle, MemoryIdleTimeout: 5 * time.Minute,
	})
	defer tb.Close()
	a, reg, _ := tb.RegisterCatalogService(catalog.Nginx)
	cli := tb.Clients[0]
	fromClient := string(cli.IP()) + ":"
	var seen []simnet.TraceEntry // every delivery of the client's packets
	tb.Net.PktTrace = func(at sim.Time, where string, pkt *simnet.Packet) {
		if pkt.SrcIP == cli.IP() || pkt.DstIP == cli.IP() {
			seen = append(seen, simnet.TraceEntry{At: at, Node: where, Kind: pkt.Kind,
				Src: fmt.Sprintf("%s:%d", pkt.SrcIP, pkt.SrcPort), Dst: fmt.Sprintf("%s:%d", pkt.DstIP, pkt.DstPort)})
		}
	}

	var second *simnet.HTTPResult
	var secondAt sim.Time
	tb.K.Go("driver", func(p *sim.Proc) {
		tb.Ctrl.EnsureDeployed(p, "egs-docker", a.UniqueName)
		t0 := p.Now()
		if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
			t.Errorf("first request: %v", err)
			return
		}
		p.Sleep(10 * time.Millisecond) // the client's FIN is still on its way
		// What the switch saw of the exchange: when the SYN reached it, and
		// the last packet of each direction.
		var synAt, fwdLast, revLast sim.Time
		for _, e := range seen {
			if e.Node != tb.Switch.Name() {
				continue
			}
			if strings.HasPrefix(e.Src, fromClient) {
				if fwdLast = e.At; e.Kind == simnet.KindSYN {
					synAt = e.At
				}
			} else {
				revLast = e.At
			}
		}
		if fwdLast <= revLast {
			t.Errorf("switch saw the client last at %v and the instance last at %v: no window to test", fwdLast, revLast)
			return
		}
		target := revLast + idle + (fwdLast-revLast)*quarter/4
		secondAt = target - (synAt - t0)
		p.Sleep(secondAt - p.Now())
		seen = nil
		var err error
		if second, err = tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
			t.Errorf("second request: %v", err)
		}
	})
	tb.K.RunUntil(time.Minute)
	if t.Failed() {
		return
	}
	if second == nil {
		t.Fatalf("the request issued at %v (%d/4 into the window) never completed:\n%v", secondAt, quarter, seen)
	}
	vip := fmt.Sprintf("%s:%d", reg.VIP, reg.Port)
	for _, e := range seen {
		if e.Node == cli.Name() && e.Kind == simnet.KindSYNACK && e.Src != vip {
			t.Errorf("the client saw a SYN-ACK from %s, want the address it dialed, %s", e.Src, vip)
		}
	}
}

// BenchmarkRegisterCatalogService is the host cost of registering one more
// catalog service on a built hybrid testbed: the annotation (the definition
// is parsed once per testbed), the punt rules and the cloud-origin host. The
// testbed is rebuilt off the clock every window registrations, so the
// population stays bounded however large b.N grows.
func BenchmarkRegisterCatalogService(b *testing.B) {
	const window = 1000
	b.ReportAllocs()
	var tb *Testbed
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			b.StopTimer()
			if tb != nil {
				tb.Close()
			}
			tb = New(Options{Seed: 1, EnableDocker: true, EnableKube: true})
			if _, _, err := tb.RegisterCatalogService(catalog.Nginx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, err := tb.RegisterCatalogService(catalog.Nginx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tb.Close()
}

// TestRegisterRejectsTargetPortMismatch: a Service whose target port names no
// container port would never be answered, and one that names two would have
// both containers listen on its host port. Registration refuses both, on the
// Docker and on the hybrid testbed, and registers nothing.
func TestRegisterRejectsTargetPortMismatch(t *testing.T) {
	for _, c := range []struct {
		name  string
		ports []int
		svc   string
	}{
		{"no-container", []int{80}, "  - port: 80\n    targetPort: 7070\n"},
		{"two-containers", []int{80, 80}, "  - port: 80\n    targetPort: 80\n"},
	} {
		var y strings.Builder
		y.WriteString("apiVersion: apps/v1\nkind: Deployment\nspec:\n  template:\n    spec:\n      containers:\n")
		for i, port := range c.ports {
			fmt.Fprintf(&y, "      - name: web%d\n        image: %s\n        ports:\n        - containerPort: %d\n", i, catalog.ImgNginx, port)
		}
		y.WriteString("---\napiVersion: v1\nkind: Service\nspec:\n  ports:\n" + c.svc)
		for _, kind := range []string{KindDocker, "hybrid"} {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				tb := New(Options{Seed: 1, EnableDocker: true, EnableKube: kind == "hybrid"})
				defer tb.Close()
				if _, _, err := tb.RegisterService(y.String(), "bad.example.com"); err == nil || !strings.Contains(err.Error(), "target port") {
					t.Fatalf("RegisterService err = %v, want a target port error", err)
				}
				if names := tb.Ctrl.ServiceNames(); len(names) != 0 {
					t.Errorf("registered %v after the error, want nothing", names)
				}
				tb.K.RunUntil(time.Minute)
			})
		}
	}
}

// TestMultiPortServiceServedByTargetContainer registers a service whose pod
// has one to three port containers and whose Service targets the first one's
// port. On either cluster the first request is answered, and by the target
// container: only it publishes the port, so killing it closes the port.
func TestMultiPortServiceServedByTargetContainer(t *testing.T) {
	for _, kind := range []string{KindDocker, KindKubernetes} {
		for n := 1; n <= 3; n++ {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				var y strings.Builder
				y.WriteString("apiVersion: apps/v1\nkind: Deployment\nspec:\n  template:\n    spec:\n      containers:\n")
				for i, port := range []int{80, 8080, 9090}[:n] {
					fmt.Fprintf(&y, "      - name: web%d\n        image: %s\n        ports:\n        - containerPort: %d\n", i, catalog.ImgNginx, port)
				}
				y.WriteString("---\napiVersion: v1\nkind: Service\nspec:\n  ports:\n  - port: 80\n    targetPort: 80\n")
				tb := New(Options{Seed: 1, EnableDocker: kind == KindDocker, EnableKube: kind == KindKubernetes})
				defer tb.Close()
				a, reg, err := tb.RegisterService(y.String(), "multi.example.com")
				if err != nil {
					t.Fatal(err)
				}
				var res *simnet.HTTPResult
				tb.K.Go("client", func(p *sim.Proc) { res, err = tb.Request(p, 0, reg, catalog.Nginx, 0) })
				tb.K.RunUntil(5 * time.Minute)
				if err != nil || res == nil || res.Resp.Status != 200 {
					t.Fatalf("request = %+v, %v; want served", res, err)
				}
				inst, ok := tb.ClusterByKind(kind).Endpoint(a.UniqueName)
				if !ok || inst.Addr != tb.EGS.IP() || !tb.EGS.PortOpen(inst.Port) {
					t.Fatalf("endpoint %+v (%v) is not open on the EGS", inst, ok)
				}
				for _, ctr := range tb.Runtime.List(nil) {
					if strings.HasSuffix(ctr.Name(), ".web0") {
						ctr.Kill()
					}
				}
				if tb.EGS.PortOpen(inst.Port) {
					t.Errorf("port %d still open with the target container killed", inst.Port)
				}
			})
		}
	}
}
