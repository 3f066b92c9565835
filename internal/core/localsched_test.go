package core_test

import (
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/kube"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// TestInstancePickerSpreadsClients builds a two-node Kubernetes cluster
// behind one switch, scales a service to two replicas, and verifies that
// the controller's round-robin instance picker (the Local Scheduler's
// traffic-level role) sends different clients to different instances.
func TestInstancePickerSpreadsClients(t *testing.T) {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := openflow.NewSwitch(n, "sw", openflow.DefaultConfig())

	link := simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps}
	node1 := simnet.NewHost(n, "n1", "10.0.0.11")
	node2 := simnet.NewHost(n, "n2", "10.0.0.12")
	sw.AttachHost(node1, 1, link)
	sw.AttachHost(node2, 2, link)
	regHost := simnet.NewHost(n, "hub", "198.51.100.1")
	sw.AttachHost(regHost, 3, simnet.LinkConfig{Latency: 5 * time.Millisecond, Bandwidth: simnet.Gbps})
	srv := registry.NewServer(regHost, registry.ServerConfig{})
	srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
	resolver := registry.NewResolver()
	resolver.AddPrefix("", regHost.IP())

	beh := cluster.StaticBehaviors{
		"nginx:1.23.2": {InitDelay: 20 * time.Millisecond, ServiceTime: 200 * time.Microsecond, RespSize: simnet.KiB},
	}
	rt1 := container.NewRuntime(node1, registry.NewClient(node1, resolver, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	rt2 := container.NewRuntime(node2, registry.NewClient(node2, resolver, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
	kc := kube.New("edge-k8s", k, kube.DefaultConfig())
	kc.AddNode("n1", rt1, beh, kube.DefaultCapacity())
	kc.AddNode("n2", rt2, beh, kube.DefaultCapacity())
	kc.Start()

	clients := make([]*simnet.Host, 4)
	for i := range clients {
		clients[i] = simnet.NewHost(n, "ue", simnet.Addr("10.0.1."+string(rune('1'+i))))
		sw.AttachHost(clients[i], 10+i, link)
	}

	cfg := core.DefaultConfig()
	cfg.Scheduler = core.WaitNearestScheduler{}
	cfg.InstancePicker = core.RoundRobinPicker()
	ctrl := core.New(k, node1, cfg)
	ctrl.AddSwitch(sw)
	ctrl.AddCluster(kc, "kubernetes")
	a, err := ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	})
	if err != nil {
		t.Fatal(err)
	}

	served := map[simnet.Addr]int{}
	k.Go("driver", func(p *sim.Proc) {
		// Deploy and scale out to two replicas, then wait for both.
		if _, err := ctrl.EnsureDeployed(p, "edge-k8s", a.UniqueName); err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		if err := kc.SetReplicas(p, a.UniqueName, 2); err != nil {
			t.Errorf("scale out: %v", err)
			return
		}
		for len(kc.Endpoints(a.UniqueName)) < 2 {
			p.Sleep(200 * time.Millisecond)
		}
		// Four distinct clients: round robin alternates the instances.
		for _, cli := range clients {
			res, err := cli.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0)
			if err != nil {
				t.Errorf("%s: %v", cli.IP(), err)
				return
			}
			_ = res
		}
		for _, e := range ctrl.Memory.Entries() {
			served[e.Instance.Addr]++
		}
	})
	k.RunUntil(5 * time.Minute)
	if len(served) != 2 {
		t.Fatalf("clients served by %d distinct instances, want 2 (%v)", len(served), served)
	}
	if served["10.0.0.11"] != 2 || served["10.0.0.12"] != 2 {
		t.Fatalf("distribution = %v, want 2/2", served)
	}
}
