package main

import (
	"fmt"
	"sort"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/srsteer"
	"transparentedge/internal/steer"
	"transparentedge/internal/testbed"
)

// Unit drivers: each times one public call of one layer in isolation, so a
// per-request budget (count x unit cost) can be set against the profiled
// figure. Nanosecond-scale calls are timed in batches and reported as the
// median batch's per-call cost; microsecond-scale calls are timed one by one
// and reported as the median call. Sample counts are in README.md.

// unitDriver is one isolated measurement.
type unitDriver struct {
	Metric string
	Layer  string
	// Run returns the unit cost in the metric's unit. n scales the sample
	// counts and table sizes (1 = the documented ones; a smoke run at
	// -scale 0.01 uses a hundredth).
	Run func(n float64) (float64, error)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// batched runs batches of calls and returns the median batch's ns per call.
func batched(n float64, batches, calls int, batch func(calls int)) float64 {
	calls = scaled(calls, n, 8)
	per := make([]float64, 0, batches)
	batch(calls) // warm pools, maps and slice capacities
	for i := 0; i < batches; i++ {
		start := time.Now()
		batch(calls)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return median(per)
}

// sinkNode returns every delivered packet to its network's pool.
type sinkNode struct {
	name string
	net  *simnet.Network
}

func (s *sinkNode) Name() string { return s.name }
func (s *sinkNode) HandlePacket(_ *simnet.Port, pkt *simnet.Packet) {
	s.net.FreePacket(pkt)
}

func clientAddr(i int) simnet.Addr {
	return simnet.Addr(fmt.Sprintf("10.%d.%d.%d", 1+i>>16, (i>>8)&0xff, i&0xff))
}

const unitVIP = simnet.Addr("203.0.113.10")

// switchRig is a switch between a source and a sink, holding one redirect
// rule per distinct client.
type switchRig struct {
	k     *sim.Kernel
	n     *simnet.Network
	sw    *openflow.Switch
	in    *simnet.Port
	rules int
}

func newSwitchRig(name string, rules int) *switchRig {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := openflow.NewSwitch(n, name, openflow.DefaultConfig())
	src := &sinkNode{name: "src", net: n}
	dst := &sinkNode{name: "dst", net: n}
	_, swIn := n.Connect(src, sw, simnet.LinkConfig{Latency: time.Millisecond})
	swOut, _ := n.Connect(sw, dst, simnet.LinkConfig{Latency: time.Millisecond})
	sw.AddPort(1, swIn)
	sw.AddPort(2, swOut)
	sw.SetDefaultRoute(2)
	r := &switchRig{k: k, n: n, sw: sw, in: swIn}
	for i := 0; i < rules; i++ {
		sw.AddFlow(r.rule(i))
	}
	r.rules = rules
	return r
}

// rule is the shape steer.OpenFlow installs for a redirect's forward half.
func (r *switchRig) rule(i int) openflow.FlowRule {
	return openflow.FlowRule{
		Priority: 100, Cookie: uint64(i + 1),
		Match:   openflow.Match{SrcIP: clientAddr(i), DstIP: unitVIP, DstPort: 80},
		Actions: openflow.Actions{SetDstIP: "10.0.0.10", SetDstPort: 32000, Output: openflow.OutputPort, OutPort: 2},
	}
}

// ingress hands the switch one packet of client i and runs it to delivery.
func (r *switchRig) ingress(i int) {
	pkt := r.n.NewPacket()
	pkt.Kind, pkt.SrcIP, pkt.DstIP = simnet.KindDATA, clientAddr(i), unitVIP
	pkt.SrcPort, pkt.DstPort, pkt.Size = 40000, 80, simnet.KiB
	r.sw.HandlePacket(r.in, pkt)
	r.k.Run()
}

// addFlowNS times AddFlow at a fixed table size: each timed insert is
// followed by an untimed delete of the same rule.
func addFlowNS(n float64, size int) float64 {
	r := newSwitchRig("sw", size)
	calls := scaled(1000, n, 8)
	per := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		rule := r.rule(size + i)
		start := time.Now()
		r.sw.AddFlow(rule)
		per = append(per, float64(time.Since(start).Nanoseconds()))
		r.sw.DeleteFlows(rule.Cookie)
	}
	return median(per)
}

// steerNS times one steering call at a steady 500 installed pairs: every
// call replaces the pair of a flow that already has one. With reanchor set
// the call is ReAnchor, which moves each flow's pair to the other switch (a
// whole pass over the flows one way, the next pass back); otherwise it is
// InstallRedirect on the switch that holds the pair.
func steerNS(n float64, b steer.Steering, reanchor bool) float64 {
	const pairs = 500
	k := sim.New(1)
	net := simnet.NewNetwork(k)
	home := openflow.NewSwitch(net, "a", openflow.DefaultConfig())
	away := openflow.NewSwitch(net, "z", openflow.DefaultConfig())
	b.Bind(steer.Params{Kernel: k, FlowPriority: 100, IdleTimeout: time.Hour})
	b.AttachSwitch(home)
	b.AttachSwitch(away)
	ep := steer.Endpoint{Addr: "10.0.0.10", Port: 32000}
	flows := make([]steer.Flow, pairs)
	for i := range flows {
		flows[i] = steer.Flow{Client: clientAddr(i), VIP: unitVIP, Port: 80}
		b.InstallRedirect(home, flows[i], ep)
	}
	i := 0
	return batched(n, 20, 500, func(calls int) {
		for c := 0; c < calls; c++ {
			if f := flows[i%pairs]; reanchor {
				b.ReAnchor(home, away, f, ep)
			} else {
				b.InstallRedirect(home, f, ep)
			}
			if i++; reanchor && i%pairs == 0 {
				home, away = away, home
			}
		}
	})
}

// deployRig is a testbed with one Nginx image pre-pulled into the cluster
// the deployments go to.
type deployRig struct {
	tb      *testbed.Testbed
	cluster string
}

func newDeployRig(kube bool) (*deployRig, error) {
	r := &deployRig{cluster: "egs-docker"}
	opts := testbed.Options{Seed: 1, EnableDocker: !kube, EnableKube: kube}
	if kube {
		r.cluster = "egs-k8s"
	}
	r.tb = testbed.New(opts)
	a, _, err := r.tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		return nil, err
	}
	if err := r.drive(func(p *sim.Proc) error { return r.tb.Ctrl.Clusters()[0].Pull(p, a) }); err != nil {
		return nil, err
	}
	return r, nil
}

// drive runs fn as a sim process and steps the kernel until it returns (the
// Kubernetes model keeps periodic timers, so the kernel never drains).
func (r *deployRig) drive(fn func(p *sim.Proc) error) error {
	done, err := false, error(nil)
	r.tb.K.Go("unit", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	for !done {
		if !r.tb.K.Step() {
			return fmt.Errorf("kernel drained before the call returned")
		}
	}
	return err
}

// deployUS registers and deploys one more service and returns the host time
// of the EnsureDeployed call in microseconds.
func (r *deployRig) deployUS() (float64, error) {
	a, _, err := r.tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = r.drive(func(p *sim.Proc) error {
		_, err := r.tb.Ctrl.EnsureDeployed(p, r.cluster, a.UniqueName)
		return err
	})
	return float64(time.Since(start).Nanoseconds()) / 1e3, err
}

// deploySeries deploys services one after another and returns each one's
// host cost; entry i was deployed with i services already running.
func deploySeries(kube bool, count int) ([]float64, error) {
	r, err := newDeployRig(kube)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		us, err := r.deployUS()
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", i, err)
		}
		out = append(out, us)
	}
	return out, nil
}

// kubeDeployUS returns the host cost of a Kubernetes deployment made with at
// services already deployed: the median of the twenty deployments from there.
func kubeDeployUS(n float64, at int) (float64, error) {
	const window = 20
	at = scaled(at, n, 1)
	us, err := deploySeries(true, at+window)
	if err != nil {
		return 0, err
	}
	return median(us[at:]), nil
}

var unitDrivers = []unitDriver{
	{"sim.unit.event_ns", "sim", func(n float64) (float64, error) {
		k := sim.New(1)
		return batched(n, 20, 20000, func(calls int) {
			for i := 0; i < calls; i++ {
				k.After(time.Duration(i)*time.Nanosecond, func() {})
			}
			k.Run()
		}), nil
	}},
	{"sim.unit.proc_switch_ns", "sim", func(n float64) (float64, error) {
		k := sim.New(1)
		return batched(n, 20, 5000, func(calls int) {
			k.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < calls; i++ {
					p.Sleep(time.Microsecond)
				}
			})
			k.Run()
		}), nil
	}},
	{"simnet.unit.hop_ns", "simnet", func(n float64) (float64, error) {
		k := sim.New(1)
		net := simnet.NewNetwork(k)
		a, b := &sinkNode{"a", net}, &sinkNode{"b", net}
		pa, _ := net.Connect(a, b, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: simnet.Gbps})
		return batched(n, 20, 5000, func(calls int) {
			for i := 0; i < calls; i++ {
				pkt := net.NewPacket()
				pkt.Kind, pkt.SrcIP, pkt.DstIP, pkt.Size = simnet.KindDATA, "10.0.0.1", "10.0.0.2", simnet.KiB
				pa.Send(pkt)
				k.Run()
			}
		}), nil
	}},
	{"simnet.unit.http_get_ns", "simnet", func(n float64) (float64, error) {
		k := sim.New(1)
		net := simnet.NewNetwork(k)
		a := simnet.NewHost(net, "a", "10.0.0.1")
		b := simnet.NewHost(net, "b", "10.0.0.2")
		ha, hb := net.Connect(a, b, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: simnet.Gbps})
		a.SetUplink(ha)
		b.SetUplink(hb)
		b.ServeHTTPAsync(80, func(c *simnet.HTTPServerConn, _ *simnet.HTTPRequest) {
			c.Respond(&simnet.HTTPResponse{Status: 200, Size: simnet.KiB})
		})
		req := &simnet.HTTPRequest{Method: "GET", Path: "/", Size: 200}
		var failed error
		ns := batched(n, 20, 1000, func(calls int) {
			for i := 0; i < calls; i++ {
				a.HTTPGetAsync(b.IP(), 80, req, 0, func(_ *simnet.HTTPResult, err error) {
					if err != nil {
						failed = err
					}
				})
				k.Run()
			}
		})
		return ns, failed
	}},
	{"openflow.unit.lookup_hit_ns_10k", "openflow", func(n float64) (float64, error) {
		r := newSwitchRig("sw", scaled(10000, n, 8))
		i := 0
		return batched(n, 20, 5000, func(calls int) {
			for c := 0; c < calls; c++ {
				r.ingress(i % r.rules)
				i += 7919 // stride over the table, not one hot rule
			}
		}), nil
	}},
	{"openflow.unit.addflow_ns_1k", "openflow", func(n float64) (float64, error) {
		return addFlowNS(n, scaled(1000, n, 8)), nil
	}},
	{"openflow.unit.addflow_ns_10k", "openflow", func(n float64) (float64, error) {
		return addFlowNS(n, scaled(10000, n, 8)), nil
	}},
	{"steer.unit.install_ns", "steer", func(n float64) (float64, error) {
		return steerNS(n, steer.NewOpenFlow(), false), nil
	}},
	{"steer.unit.reanchor_ns", "steer", func(n float64) (float64, error) {
		return steerNS(n, steer.NewOpenFlow(), true), nil
	}},
	{"srsteer.unit.install_ns", "srsteer", func(n float64) (float64, error) {
		return steerNS(n, srsteer.New(), false), nil
	}},
	{"srsteer.unit.encap_ns", "srsteer", func(n float64) (float64, error) {
		// A client packet entering a switch whose ingress hook holds a
		// binding for it: probe, encapsulate in place, forward.
		r := newSwitchRig("sw", 0)
		b := srsteer.New()
		b.Bind(steer.Params{Kernel: r.k, FlowPriority: 100, IdleTimeout: time.Hour})
		b.AttachSwitch(r.sw)
		const flows = 1000
		for i := 0; i < flows; i++ {
			b.InstallRedirect(r.sw, steer.Flow{Client: clientAddr(i), VIP: unitVIP, Port: 80},
				steer.Endpoint{Addr: "10.0.0.10", Port: 32000})
		}
		i := 0
		return batched(n, 20, 5000, func(calls int) {
			for c := 0; c < calls; c++ {
				r.ingress(i % flows)
				i += 7
			}
		}), nil
	}},
	{"core.unit.flowmemory_put_get_ns", "core", func(n float64) (float64, error) {
		k := sim.New(1)
		m := core.NewFlowMemory(k, time.Minute)
		inst := cluster.Instance{Service: "svc-0", Cluster: "edge", Addr: "10.0.0.50", Port: 30000}
		keys := make([]core.FlowKey, 1024)
		for i := range keys {
			keys[i] = core.FlowKey{Client: clientAddr(i), VIP: unitVIP, Port: 80}
			m.Put(keys[i], inst)
		}
		var missed error
		ns := batched(n, 20, 20000, func(calls int) {
			for i := 0; i < calls; i++ {
				key := keys[i%len(keys)]
				m.Put(key, inst)
				if _, ok := m.Get(key); !ok {
					missed = fmt.Errorf("FlowMemory lost key %v", key)
				}
			}
		})
		return ns, missed
	}},
	{"docker.unit.deploy_host_us", "docker", func(n float64) (float64, error) {
		us, err := deploySeries(false, scaled(1000, n, 3))
		return median(us), err
	}},
	{"kube.unit.deploy_host_us_at_1", "kube", func(n float64) (float64, error) { return kubeDeployUS(n, 1) }},
	{"kube.unit.deploy_host_us_at_500", "kube", func(n float64) (float64, error) { return kubeDeployUS(n, 500) }},
	{"registry.unit.pull_host_us", "registry", func(n float64) (float64, error) {
		calls := scaled(1000, n, 3)
		per := make([]float64, 0, calls)
		for i := 0; i < calls; i++ {
			// A fresh testbed per sample, so every pull is cold.
			r := &deployRig{tb: testbed.New(testbed.Options{Seed: 1, EnableDocker: true})}
			a, _, err := r.tb.RegisterCatalogService(catalog.Nginx)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			err = r.drive(func(p *sim.Proc) error { return r.tb.Docker.Pull(p, a) })
			per = append(per, float64(time.Since(start).Nanoseconds())/1e3)
			if err != nil {
				return 0, err
			}
		}
		return median(per), nil
	}},
	{"metrics.unit.hist_add_ns", "metrics", func(n float64) (float64, error) {
		h := metrics.NewHist("unit")
		return batched(n, 20, 50000, func(calls int) {
			for i := 0; i < calls; i++ {
				h.Add(time.Duration(i), time.Duration(1000+i*37))
			}
		}), nil
	}},
	{"obs.unit.emit_ns", "obs", func(n float64) (float64, error) {
		tr := obs.NewTracer(0)
		return batched(n, 20, 50000, func(calls int) {
			for i := 0; i < calls; i++ {
				tr.Emit(obs.Span{Name: "request", Cat: "request", Start: time.Duration(i), End: time.Duration(i + 1000)})
			}
		}), nil
	}},
}

// runUnits runs every unit driver, each inside a harness span.
func runUnits(n float64, log *spanLog) (map[string]float64, error) {
	out := make(map[string]float64, len(unitDrivers))
	for _, d := range unitDrivers {
		var v float64
		var err error
		log.span(d.Metric, d.Layer, func() { v, err = d.Run(n) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Metric, err)
		}
		out[d.Metric] = v
	}
	return out, nil
}
