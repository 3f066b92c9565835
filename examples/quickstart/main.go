// Quickstart: one edge cluster, one client, on-demand deployment with
// waiting.
//
// The client requests a registered cloud address. The switch has no flow
// for it, so the SYN is punted to the SDN controller, which pulls the nginx
// image, creates and scales up the service on the Docker edge cluster,
// probes the port until it opens, installs the rewrite flows, and finally
// releases the held packet — all transparent to the client, which simply
// sees a slow first response and fast ones afterwards.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
)

func main() {
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:         1,
		EnableDocker: true,
		Events:       func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})

	// Register the nginx service by its cloud address. Registration
	// parses the developer's lean YAML and auto-annotates it (§V).
	a, reg, err := tb.RegisterCatalogService(edge.Nginx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("registered %s -> unique name %s\n\n", reg.Domain, a.UniqueName)

	tb.K.Go("client", func(p *edge.Proc) {
		for i := 1; i <= 3; i++ {
			res, err := tb.Request(p, 0, reg, edge.Nginx, 0)
			if err != nil {
				fmt.Println("request failed:", err)
				return
			}
			fmt.Printf("request %d: total %v (connect %v)\n", i, res.Total, res.Connect)
		}
	})
	tb.K.RunUntil(time.Minute)

	fmt.Println("\ndeployment phases of the first request:")
	for _, r := range tb.Ctrl.RecordsFor("egs-docker", a.UniqueName) {
		fmt.Printf("  pull %v + create %v + scale-up %v + ready-wait %v = %v\n",
			r.Pull, r.Create, r.ScaleUp, r.ReadyWait, r.Total())
	}
}
