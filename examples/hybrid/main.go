// Hybrid deployment (paper §VII): "we can combine the best of both worlds.
// First, we launch an edge service via Docker to respond faster to the
// initial request. Then, we deploy the same service to Kubernetes for
// future requests. This way, we can have both fast initial response
// (Docker) and automated cluster management (Kubernetes)."
//
// Run with: go run ./examples/hybrid
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
)

func main() {
	sched, err := edge.NewScheduler("docker-first")
	if err != nil {
		panic(err)
	}
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:              1,
		EnableDocker:      true,
		EnableKube:        true,
		Scheduler:         sched,
		SwitchIdleTimeout: 2 * time.Second,
		Events:            func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})
	a, reg, err := tb.RegisterCatalogService(edge.Nginx)
	if err != nil {
		panic(err)
	}

	tb.K.Go("client", func(p *edge.Proc) {
		// Images are cached (the interesting §VII contrast is start
		// times, not the shared pull).
		tb.Docker.Pull(p, a)

		res, err := tb.Request(p, 0, reg, edge.Nginx, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nfirst request: %v — answered by Docker while Kubernetes deploys\n", res.Total)

		p.Sleep(30 * time.Second)
		res, err = tb.Request(p, 0, reg, edge.Nginx, 0)
		if err != nil {
			panic(err)
		}
		served := "docker"
		for _, e := range tb.Ctrl.Memory.Entries() {
			if e.Instance.Cluster == "egs-k8s" {
				served = "kubernetes"
			}
		}
		fmt.Printf("later request: %v — served by %s (automated management took over)\n",
			res.Total, served)
	})
	tb.K.RunUntil(5 * time.Minute)

	fmt.Println("\ndeployments:")
	for _, r := range tb.Ctrl.Records() {
		fmt.Printf("  %-12s create %-8v scale-up %-8v ready-wait %-8v\n",
			r.Cluster, r.Create, r.ScaleUp, r.ReadyWait)
	}
}
