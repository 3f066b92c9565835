// Multi-container service on Kubernetes: the paper's Nginx+Py service and
// the automatic annotation of service definition files (§V).
//
// The developer writes a lean Deployment YAML with two containers (nginx
// plus a Python app writing status into a shared host folder). The system
// annotates it — unique worldwide name, matchLabels, the edge.service
// label, replicas: 0 ("scale to zero"), a schedulerName for the configured
// Local Scheduler — and generates the Kubernetes Service definition. The
// first request then drives the whole Deployment -> ReplicaSet -> Pod ->
// scheduler -> kubelet chain.
//
// Run with: go run ./examples/multiservice
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
)

func main() {
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:       1,
		EnableKube: true,
		// Configure a Local Scheduler (§IV-B): it is annotated into every
		// service definition and handles only the edge pods.
		LocalSchedulerName: "edge-local-scheduler",
		Events:             func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})
	a, reg, err := tb.RegisterCatalogService(edge.NginxPy)
	if err != nil {
		panic(err)
	}

	fmt.Println("automatically annotated definition applied to the cluster:")
	fmt.Println(a.EncodeYAML())

	tb.K.Go("client", func(p *edge.Proc) {
		res, err := tb.Request(p, 0, reg, edge.NginxPy, 0)
		if err != nil {
			fmt.Println("request failed:", err)
			return
		}
		fmt.Printf("first request: %v (two containers deployed on demand)\n", res.Total)
		res, _ = tb.Request(p, 0, reg, edge.NginxPy, 0)
		fmt.Printf("second request: %v\n", res.Total)
	})
	tb.K.RunUntil(5 * time.Minute)

	fmt.Println("\ncluster objects after the deployment:")
	for _, d := range tb.Kube.API().Deployments.List() {
		fmt.Printf("  deployment %s  replicas=%d scheduler=%q\n", d.Name, d.Replicas, d.SchedulerName)
	}
	for _, pod := range tb.Kube.API().ListPods(nil) {
		fmt.Printf("  pod %s  node=%s phase=%s hostPort=%d containers=%d\n",
			pod.Name, pod.NodeName, pod.Phase, pod.HostPort, len(pod.Spec.Containers))
	}
	for _, s := range tb.Kube.API().Services.List() {
		fmt.Printf("  service %s  port=%d targetPort=%d nodePort=%d\n",
			s.Name, s.Port, s.TargetPort, s.NodePort)
	}
}
