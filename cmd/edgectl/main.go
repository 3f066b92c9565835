// Command edgectl inspects the transparent-edge system: it prints the
// automatically annotated service definitions (§V), lists the registered
// Global Schedulers, and runs a demo scenario dumping the controller state
// — registered services, cluster state, switch flow table, FlowMemory, and
// per-phase deployment records.
//
// Usage:
//
//	edgectl schedulers
//	edgectl annotate <Asm|Nginx|ResNet|Nginx+Py>
//	edgectl demo [-scheduler name] [-docker] [-kube] [-far] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	edge "transparentedge"
	"transparentedge/internal/catalog"
	"transparentedge/internal/metrics"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "schedulers":
		for _, n := range edge.SchedulerNames() {
			fmt.Println(n)
		}
	case "annotate":
		err = annotate(os.Args[2:])
	case "demo":
		err = demo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgectl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  edgectl schedulers                 list registered Global Schedulers
  edgectl annotate <service>        print the auto-annotated YAML (§V)
  edgectl demo [flags]              run a scenario and dump controller state
`)
}

func annotate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("annotate: exactly one Table I service key expected")
	}
	svc, err := catalog.Get(args[0])
	if err != nil {
		return err
	}
	def, err := spec.Parse(svc.YAML)
	if err != nil {
		return err
	}
	reg := spec.Registration{Domain: "demo.example.com", VIP: "203.0.113.10", Port: 80}
	a, err := spec.Annotate(def, reg, spec.Options{SchedulerName: ""})
	if err != nil {
		return err
	}
	fmt.Printf("# service %q registered at %s:%d\n", a.UniqueName, reg.VIP, reg.Port)
	fmt.Printf("# --- developer input ---\n%s\n", svc.YAML)
	fmt.Printf("# --- automatically annotated (deployed to the cluster) ---\n%s", a.EncodeYAML())
	return nil
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	schedName := fs.String("scheduler", "proximity", "Global Scheduler to load")
	useDocker := fs.Bool("docker", true, "enable the EGS Docker cluster")
	useKube := fs.Bool("kube", false, "enable the EGS Kubernetes cluster")
	useFar := fs.Bool("far", false, "enable the farther-away edge cluster")
	seed := fs.Int64("seed", 1, "simulation seed")
	trace := fs.Bool("trace", false, "record and print a packet trace (simulated tcpdump)")
	traceMax := fs.Int("trace-max", 40, "maximum packet-trace lines")
	fs.Parse(args)

	sched, err := edge.NewScheduler(*schedName)
	if err != nil {
		return err
	}
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:          *seed,
		EnableDocker:  *useDocker,
		EnableKube:    *useKube,
		EnableFarEdge: *useFar,
		Scheduler:     sched,
		Events:        func(e edge.ObsEvent) { fmt.Printf("  controller: %s\n", e) },
	})
	var tracer *simnet.Tracer
	if *trace {
		tracer = simnet.NewTracer(tb.Net)
		tracer.Limit = *traceMax
	}
	a, reg, err := tb.RegisterCatalogService(edge.Nginx)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: two clients request %s (scheduler %q)\n", a.UniqueName, *schedName)
	tb.K.Go("demo", func(p *edge.Proc) {
		for i := 0; i < 2; i++ {
			res, err := tb.Request(p, i, reg, edge.Nginx, 0)
			if err != nil {
				fmt.Printf("  client %d: error: %v\n", i, err)
				continue
			}
			fmt.Printf("  client %d: total %s\n", i, metrics.FormatDuration(res.Total))
			p.Sleep(time.Second)
		}
	})
	// Stop shortly after the scenario so the dump still shows the
	// installed flows and FlowMemory entries (idle timeouts would clear
	// them later).
	tb.K.RunUntil(15 * time.Second)

	fmt.Println("\nregistered services:")
	for _, n := range tb.Ctrl.ServiceNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("clusters:")
	for _, cl := range tb.Ctrl.Clusters() {
		for _, s := range cl.Services() {
			ep, ok := cl.Endpoint(s)
			state := "created"
			if cl.Running(s) {
				state = "running"
			}
			if ok {
				fmt.Printf("  %-12s %-28s %-8s %s:%d\n", cl.Name(), s, state, ep.Addr, ep.Port)
			} else {
				fmt.Printf("  %-12s %-28s %-8s\n", cl.Name(), s, state)
			}
		}
	}
	fmt.Println("switch flow table:")
	for _, r := range tb.Switch.Rules() {
		pkts, bytes := r.Stats()
		fmt.Printf("  prio %3d  %-48s -> pkts %3d bytes %d\n", r.Priority, r.Match.String(), pkts, bytes)
	}
	fmt.Println("flow memory:")
	for _, e := range tb.Ctrl.Memory.Entries() {
		fmt.Printf("  %s -> %s (%s:%d)\n", e.Key.Client, e.Instance.Cluster, e.Instance.Addr, e.Instance.Port)
	}
	fmt.Println("deployment records:")
	for _, r := range tb.Ctrl.Records() {
		fmt.Printf("  %-28s on %-12s pull %-8s create %-8s scaleup %-8s wait %-8s\n",
			r.Service, r.Cluster,
			metrics.FormatDuration(r.Pull), metrics.FormatDuration(r.Create),
			metrics.FormatDuration(r.ScaleUp), metrics.FormatDuration(r.ReadyWait))
	}
	s := tb.Ctrl.Stats
	fmt.Printf("stats: packet-ins %d, memory-served %d, cloud-forwards %d, deployments %d, redirections %d\n",
		s.PacketIns, s.MemoryServed, s.CloudForwards, s.Deployments, s.Redirections)
	if tracer != nil {
		fmt.Printf("\npacket trace (first %d deliveries):\n%s", *traceMax, tracer.String())
	}
	return nil
}
