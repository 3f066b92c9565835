package transparentedge_test

import (
	"fmt"
	"time"

	edge "transparentedge"
)

// The documented quickstart: the first request to a registered service
// triggers an on-demand deployment (pull + create + scale-up + readiness
// probing); the second request flows through the installed rewrite rules.
func Example() {
	tb := edge.NewTestbed(edge.TestbedOptions{Seed: 1, EnableDocker: true})
	a, reg, err := tb.RegisterCatalogService(edge.Nginx)
	if err != nil {
		panic(err)
	}
	tb.K.Go("client", func(p *edge.Proc) {
		first, _ := tb.Request(p, 0, reg, edge.Nginx, 0)
		second, _ := tb.Request(p, 0, reg, edge.Nginx, 0)
		fmt.Printf("service: %s\n", a.UniqueName)
		fmt.Printf("first request deploys: %v\n", first.Total > 500*time.Millisecond)
		fmt.Printf("second request is edge-fast: %v\n", second.Total < 5*time.Millisecond)
	})
	tb.K.RunUntil(time.Minute)
	// Output:
	// service: edge-nginx-10-example-com-80
	// first request deploys: true
	// second request is edge-fast: true
}

// Global Schedulers are loaded by configuration name, as in the paper's
// dynamically loaded scheduler plug-ins.
func ExampleNewScheduler() {
	for _, name := range edge.SchedulerNames() {
		if name == "custom-test" {
			continue // registered by another test in this package
		}
		s, err := edge.NewScheduler(name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %T\n", name, s)
	}
	// Output:
	// docker-first: core.DockerFirstScheduler
	// least-loaded: core.LeastLoadedScheduler
	// no-wait: core.NoWaitScheduler
	// proximity: core.ProximityScheduler
	// wait-nearest: core.WaitNearestScheduler
}

// The evaluation trace reproduces the paper's published marginals.
func ExampleGenerateTrace() {
	tr := edge.GenerateTrace(edge.DefaultTraceConfig(42))
	fmt.Printf("requests: %d\n", len(tr.Requests))
	fmt.Printf("services: %d\n", tr.Config.Services)
	fmt.Printf("deployments: %d\n", len(tr.FirstArrivals()))
	// Output:
	// requests: 1708
	// services: 42
	// deployments: 42
}
