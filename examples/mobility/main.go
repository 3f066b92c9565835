// Client mobility: the Dispatcher tracks the clients' current location
// (§IV-B), and the FlowMemory re-serves a client that reappears behind a
// different gNB switch without re-running the scheduler — the
// "follow-me"-style continuity the related work (Taleb et al.) targets,
// realized here purely with the transparent-access building blocks.
//
// Topology: two OpenFlow switches (gnb1, gnb2) joined by a cross-haul
// link; the EGS (controller + Docker cluster) hangs off gnb1. A UE starts
// behind gnb1, triggers an on-demand deployment, then hands over to gnb2
// and immediately continues using the service.
//
// Run with: go run ./examples/mobility
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

func main() {
	k := edge.NewKernel(1)
	n := simnet.NewNetwork(k)

	gnb1 := openflow.NewSwitch(n, "gnb1", openflow.DefaultConfig())
	gnb2 := openflow.NewSwitch(n, "gnb2", openflow.DefaultConfig())
	p1, p2 := n.Connect(gnb1, gnb2, simnet.LinkConfig{
		Name: "x-haul", Latency: 500 * time.Microsecond, Bandwidth: 10 * simnet.Gbps,
	})
	gnb1.AddPort(10, p1)
	gnb2.AddPort(10, p2)

	egs := simnet.NewHost(n, "egs", "10.0.0.10")
	gnb1.AttachHost(egs, 1, simnet.LinkConfig{Latency: 50 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	gnb2.SetRoute(egs.IP(), 10)

	ue := simnet.NewHost(n, "ue", "10.0.1.1")
	ue.ProcDelay = 200 * time.Microsecond
	gnb1.AttachHost(ue, 2, simnet.LinkConfig{Latency: 150 * time.Microsecond, Bandwidth: simnet.Gbps})
	gnb2.SetRoute(ue.IP(), 10)

	hub := simnet.NewHost(n, "hub", "198.51.100.1")
	gnb1.AttachHost(hub, 3, simnet.LinkConfig{Latency: 5 * time.Millisecond, Bandwidth: simnet.Gbps})
	gnb2.SetRoute(hub.IP(), 10)
	srv := registry.NewServer(hub, registry.ServerConfig{})
	for _, img := range catalog.Images() {
		srv.Add(img)
	}
	resolver := registry.NewResolver()
	resolver.AddPrefix("", hub.IP())

	rt := container.NewRuntime(egs, registry.NewClient(egs, resolver))
	var behaviors cluster.BehaviorSource = catalog.Behaviors()
	eng := docker.New("egs-docker", rt, behaviors)

	ctrl := core.New(k, egs, core.Config{
		Events: func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})
	ctrl.AddSwitch(gnb1)
	ctrl.AddSwitch(gnb2)
	ctrl.AddCluster(eng, "docker")

	svc, err := catalog.Get(edge.Nginx)
	if err != nil {
		panic(err)
	}
	if _, err := ctrl.RegisterService(svc.YAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		panic(err)
	}

	k.Go("ue", func(p *edge.Proc) {
		res, err := ue.HTTPGet(p, "203.0.113.10", 80, catalog.Request(edge.Nginx), 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("at gnb1: first request %v (on-demand deployment)\n", res.Total)
		res, _ = ue.HTTPGet(p, "203.0.113.10", 80, catalog.Request(edge.Nginx), 0)
		fmt.Printf("at gnb1: next request  %v\n", res.Total)

		// Handover: the old radio link is severed (any in-flight packets on
		// it are dropped and counted), the UE re-attaches behind gnb2,
		// routing follows, and the controller migrates its steering state.
		gnb1.DetachPort(2)
		_, np := ue.MoveTo(gnb2, simnet.LinkConfig{Latency: 150 * time.Microsecond, Bandwidth: simnet.Gbps})
		gnb2.AddPort(2, np)
		gnb2.SetRoute(ue.IP(), 2)
		gnb1.SetRoute(ue.IP(), 10)
		ctrl.NoteHandover(ue.IP(), gnb2)
		fmt.Println("--- handover: ue now behind gnb2 ---")

		res, err = ue.HTTPGet(p, "203.0.113.10", 80, catalog.Request(edge.Nginx), 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("at gnb2: request        %v (FlowMemory re-served, no re-deployment)\n", res.Total)
		if sw, ok := ctrl.ClientLocation(ue.IP()); ok {
			fmt.Printf("controller sees the client at switch %s\n", sw.Name())
		}
	})
	k.RunUntil(time.Minute)
	fmt.Printf("stats: packet-ins %d, memory-served %d, deployments %d\n",
		ctrl.Stats.PacketIns, ctrl.Stats.MemoryServed, ctrl.Stats.Deployments)
}
