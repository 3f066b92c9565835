// Video analytics at the edge: on-demand deployment *without waiting*
// (paper fig. 3).
//
// An image-classification service (TensorFlow Serving with a ResNet50
// model) takes seconds to become ready — far too long to hold a client's
// request. A farther-away edge cluster already runs an instance (higher
// clusters in the edge hierarchy are more likely to have a service warm),
// so the proximity scheduler serves the initial requests from there while
// the optimal near edge pulls and warms the model in the background. Once
// ready, the FlowMemory is re-pointed and subsequent requests are served
// locally at lower latency.
//
// Run with: go run ./examples/videoanalytics
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
)

func main() {
	sched, err := edge.NewScheduler("proximity")
	if err != nil {
		panic(err)
	}
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:          1,
		EnableDocker:  true, // the near (optimal) edge
		EnableFarEdge: true, // the farther edge that is already warm
		Scheduler:     sched,
		// Short switch flows: clients re-consult the controller (and the
		// redirected FlowMemory) quickly after the hand-over.
		SwitchIdleTimeout: 2 * time.Second,
		Events:            func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})
	a, reg, err := tb.RegisterCatalogService(edge.ResNet)
	if err != nil {
		panic(err)
	}

	tb.K.Go("camera", func(p *edge.Proc) {
		// Warm the far edge (in the paper's hierarchy this happened
		// because some other client used the service there before).
		if err := tb.FarDocker.Pull(p, a); err != nil {
			panic(err)
		}
		if err := tb.FarDocker.Create(p, a); err != nil {
			panic(err)
		}
		tb.FarDocker.ScaleUp(p, a.UniqueName)
		p.Sleep(6 * time.Second) // model load on the far edge

		fmt.Println("\ncamera uploads frames for classification (83 KiB each):")
		for i := 1; i <= 8; i++ {
			res, err := tb.Request(p, 0, reg, edge.ResNet, 0)
			if err != nil {
				fmt.Println("classify failed:", err)
				return
			}
			where := "far edge"
			for _, e := range tb.Ctrl.Memory.Entries() {
				if e.Instance.Cluster == "egs-docker" {
					where = "near edge"
				}
			}
			fmt.Printf("  frame %d: %8v  (served by %s)\n", i, res.Total, where)
			p.Sleep(4 * time.Second)
		}
	})
	tb.K.RunUntil(5 * time.Minute)

	fmt.Printf("\nredirections to the optimal edge: %d\n", tb.Ctrl.Stats.Redirections)
	fmt.Println("the first frames were classified immediately by the farther instance;")
	fmt.Println("once the near instance loaded its model, traffic moved there.")
}
