package main

import (
	"fmt"
	"strings"

	"transparentedge/internal/obs/attrib"
)

// metricDef names one reported number. Host metrics use the simulator's own
// run time and are noisy; simulated metrics and counts are what the modelled
// edge stack did and repeat bit-identically for a seed.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string // "host", "simulated" or "count"
	Better string // "lower" or "higher"
	// Bound is the share of the reference value by which the metric may get
	// worse before it counts as a regression. Exact metrics have none: any
	// difference at a fixed seed is a failure.
	Bound float64
	Exact bool
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the host-side end-to-end metrics: what a researcher running
// replays and sweeps pays. They are BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Clock: "host", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_req", Unit: "1", Clock: "host", Better: "lower", Bound: 0.02},
	{Name: "bytes_per_req", Unit: "B", Clock: "host", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Clock: "host", Better: "lower", Bound: 0.15},
}

// modelled are the end-to-end metrics of the modelled system. They are exact
// per seed, so the harness itself enforces them (identical across reps,
// traced or not, and across -selfcheck runs) instead of a relative bound;
// the driver receives them with the per-layer metrics, which carry no bound.
var modelled = []metricDef{
	{Name: "failed_share", Unit: "ratio", Clock: "count", Better: "lower", Exact: true},
	{Name: "sim_total_p50_ms", Unit: "ms", Clock: "simulated", Better: "lower", Exact: true},
	{Name: "sim_total_p99_ms", Unit: "ms", Clock: "simulated", Better: "lower", Exact: true},
	{Name: "sim_first_p50_ms", Unit: "ms", Clock: "simulated", Better: "lower", Exact: true},
}

// profiledLayers are the layers a CPU sample can be charged to: the packages
// under internal/ the workloads run, the Go runtime, and "other" for the
// internal packages without a row of their own, so the shares sum to 1.
var profiledLayers = []string{
	"sim", "simnet", "openflow", "steer", "core", "docker", "kube", "container",
	"registry", "testbed", "workload", "metrics", "obs", layerRuntime, "other",
}

func count(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: "count", Better: "lower", Exact: true}
}

func host(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: "host", Better: "lower"}
}

func higher(m metricDef) metricDef {
	m.Better = "higher"
	return m
}

// perLayer is BENCHMARK.json's per_layer list, in print order.
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), modelled...)
	out = append(out,
		count("sim.events_per_req", "1"),
		count("sim.scheduled_per_fired", "ratio"),
		count("sim.wheel_cascades_per_req", "1"),
		count("sim.near_high_water", "count"),
		host("sim.host_ns_per_event", "ns"),
		host("sim.unit.event_ns", "ns"),
		host("sim.unit.proc_switch_ns", "ns"),
		count("sim.shard.windows", "count"),
		higher(count("sim.shard.busy_window_share", "ratio")),
		count("sim.shard.cross_msgs", "count"),
		host("sim.shard.barrier_stall_wall_share", "ratio"),
		higher(host("sim.shard.speedup", "ratio")),
		count("simnet.packets_per_req", "1"),
		count("simnet.drops_per_req", "1"),
		count("simnet.pool_leak", "count"),
		host("simnet.unit.hop_ns", "ns"),
		host("simnet.unit.http_get_ns", "ns"),
		count("openflow.rule_high_water", "count"),
		host("openflow.unit.lookup_hit_ns_10k", "ns"),
		host("openflow.unit.addflow_ns_1k", "ns"),
		host("openflow.unit.addflow_ns_10k", "ns"),
		count("steer.flow_mods_per_req", "1"),
		count("steer.entries_high_water", "count"),
		host("steer.unit.install_ns", "ns"),
		host("steer.unit.reanchor_ns", "ns"),
		host("srsteer.unit.install_ns", "ns"),
		host("srsteer.unit.encap_ns", "ns"),
		count("core.packet_ins_per_req", "1"),
		higher(count("core.memory_hit_ratio", "ratio")),
		count("core.full_dispatch_per_req", "1"),
		count("core.deploys", "count"),
		count("core.deploy_failures", "count"),
		count("core.redirections", "count"),
		count("core.cloud_forwards_per_req", "1"),
		count("core.flowmemory_high_water", "count"),
		host("core.host_us_per_packet_in", "us"),
		host("core.unit.flowmemory_put_get_ns", "ns"),
	)
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		out = append(out, metricDef{
			Name: "core.phase." + p.String() + "_ms", Unit: "ms",
			Clock: "simulated", Better: "lower", Exact: true,
		})
	}
	out = append(out,
		count("docker.ops", "count"),
		count("kube.ops", "count"),
		host("docker.unit.deploy_host_us", "us"),
		host("kube.unit.deploy_host_us_at_1", "us"),
		host("kube.unit.deploy_host_us_at_500", "us"),
		host("registry.unit.pull_host_us", "us"),
		host("testbed.build_ms", "ms"),
		host("workload.generate_ms", "ms"),
		host("metrics.unit.hist_add_ns", "ns"),
		host("obs.trace_overhead_ratio", "ratio"),
		count("obs.spans_per_req", "1"),
		count("obs.dropped_spans", "count"),
		host("obs.unit.emit_ns", "ns"),
		host("go-runtime.gc_cycles", "count"),
		host("go-runtime.gc_pause_ms", "ms"),
	)
	for _, l := range profiledLayers {
		out = append(out, host(l+".host_share", "ratio"), host(l+".host_ns_per_req", "ns"))
	}
	// Count x unit cost over the profiled figure, for the layers that have
	// both. Far from 1 is a finding, not a failure.
	for _, l := range []string{"sim", "simnet", "openflow", "kube"} {
		out = append(out, host(l+".budget_ratio", "ratio"))
	}
	return out
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumCounters adds up the registry series whose name starts with prefix and
// contains every one of the label fragments.
func sumCounters(counters map[string]float64, prefix string, fragments ...string) float64 {
	var sum float64
next:
	for name, v := range counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(name, f) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	timed      []*repResult // untraced reps; their medians are the reference
	traced     *repResult
	serial     *repResult // sharded workloads only: one extra shards=1 rep
	shares     map[string]float64
	units      map[string]float64
	generateMS float64
}

func medianOf(reps []*repResult, f func(*repResult) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return median(vs)
}

// modelledValues returns the exact end-to-end metrics of one rep.
func modelledValues(r *repResult) map[string]float64 {
	return map[string]float64{
		"failed_share":     ratio(float64(r.failed()), float64(r.Requests)),
		"sim_total_p50_ms": ms(r.TotalP50),
		"sim_total_p99_ms": ms(r.TotalP99),
		"sim_first_p50_ms": ms(r.FirstP50),
	}
}

// perLayerValues computes every per-layer metric of one workload.
func perLayerValues(in layerInputs) (map[string]float64, error) {
	t := in.traced
	req := float64(t.Requests)
	cpuS := medianOf(in.timed, func(r *repResult) float64 { return r.CPUS })
	wallS := medianOf(in.timed, func(r *repResult) float64 { return r.WallS })
	v := modelledValues(t)
	for name, u := range in.units {
		v[name] = u
	}

	// Host time per layer. Internal packages without a row fold into
	// "other", so the shares still sum to 1.
	named := map[string]bool{}
	for _, l := range profiledLayers {
		named[l] = true
	}
	shares := map[string]float64{}
	for l, s := range in.shares {
		if !named[l] {
			l = "other"
		}
		shares[l] += s
	}
	nsPerReq := func(layer string) float64 { return shares[layer] * cpuS * 1e9 / req }
	for _, l := range profiledLayers {
		v[l+".host_share"] = shares[l]
		v[l+".host_ns_per_req"] = nsPerReq(l)
	}

	events := float64(t.Kernel.Events)
	v["sim.events_per_req"] = events / req
	v["sim.scheduled_per_fired"] = ratio(float64(t.Kernel.Scheduled), events)
	v["sim.wheel_cascades_per_req"] = float64(t.Kernel.WheelCascades) / req
	v["sim.near_high_water"] = float64(t.Kernel.NearHighWater)
	v["sim.host_ns_per_event"] = ratio(nsPerReq("sim")*req, events)

	for _, name := range []string{"windows", "busy_window_share", "cross_msgs", "barrier_stall_wall_share", "speedup"} {
		v["sim.shard."+name] = 0 // single-kernel workloads have no shard group
	}
	if g := t.Group; g != nil {
		var busy, idle, sent, stall float64
		for _, s := range g.Shards {
			busy += float64(s.BusyWindows)
			idle += float64(s.IdleWindows)
			sent += float64(s.SentMessages)
			stall += s.BarrierStallWall.Seconds()
		}
		v["sim.shard.windows"] = float64(g.Windows)
		v["sim.shard.busy_window_share"] = ratio(busy, busy+idle)
		v["sim.shard.cross_msgs"] = sent
		v["sim.shard.barrier_stall_wall_share"] = ratio(stall, t.WallS*float64(len(g.Shards)))
		if in.serial != nil {
			v["sim.shard.speedup"] = ratio(in.serial.WallS, wallS)
		}
	}

	c := t.Counters
	packets := c["simnet_packet_pool_gets_total"]
	v["simnet.packets_per_req"] = packets / req
	v["simnet.drops_per_req"] = c["simnet_packet_drops_total"] / req
	v["simnet.pool_leak"] = packets - c["simnet_packet_pool_puts_total"]

	v["openflow.rule_high_water"] = float64(t.RuleHighWater)
	flowMods := float64(t.Steer.FlowMods)
	v["steer.flow_mods_per_req"] = flowMods / req
	v["steer.entries_high_water"] = float64(t.Steer.EntriesHighWater)

	packetIns := float64(t.Ctrl.PacketIns)
	v["core.packet_ins_per_req"] = packetIns / req
	v["core.memory_hit_ratio"] = ratio(float64(t.Ctrl.MemoryServed), packetIns)
	v["core.full_dispatch_per_req"] = (packetIns - float64(t.Ctrl.MemoryServed)) / req
	v["core.deploys"] = float64(t.Ctrl.Deployments)
	v["core.deploy_failures"] = float64(t.Ctrl.DeployFailures)
	v["core.redirections"] = float64(t.Ctrl.Redirections)
	v["core.cloud_forwards_per_req"] = float64(t.Ctrl.CloudForwards) / req
	v["core.flowmemory_high_water"] = c["flowmemory_entries_max"]
	v["core.host_us_per_packet_in"] = ratio(nsPerReq("core")*req/1e3, packetIns)
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		var p50 float64
		if h := t.Excl[p]; h != nil && h.Len() > 0 {
			p50 = ms(h.Median())
		}
		v["core.phase."+p.String()+"_ms"] = p50
	}

	v["docker.ops"] = sumCounters(c, "cluster_ops_total", `-docker"`)
	v["kube.ops"] = sumCounters(c, "cluster_ops_total", `-k8s"`)
	v["testbed.build_ms"] = t.BuildMS
	v["workload.generate_ms"] = in.generateMS
	v["obs.trace_overhead_ratio"] = ratio(t.WallS, wallS)
	v["obs.spans_per_req"] = float64(t.Spans) / req
	v["obs.dropped_spans"] = float64(t.Dropped)
	v["go-runtime.gc_cycles"] = float64(t.GCCycles)
	v["go-runtime.gc_pause_ms"] = t.GCPauseMS

	// Budgets: count x unit cost against the layer's profiled cost.
	dockerDeploys := sumCounters(c, "cluster_ops_total", `-docker"`, `op="scale_up"`)
	kubeDeploys := sumCounters(c, "cluster_ops_total", `-k8s"`, `op="scale_up"`)
	deployNS := (dockerDeploys*in.units["docker.unit.deploy_host_us"] + kubeDeploys*in.units["kube.unit.deploy_host_us_at_1"]) * 1e3
	v["sim.budget_ratio"] = ratio(v["sim.events_per_req"]*in.units["sim.unit.event_ns"], nsPerReq("sim"))
	v["simnet.budget_ratio"] = ratio(v["simnet.packets_per_req"]*in.units["simnet.unit.hop_ns"], nsPerReq("simnet"))
	v["openflow.budget_ratio"] = ratio(v["steer.flow_mods_per_req"]*in.units["openflow.unit.addflow_ns_1k"], nsPerReq("openflow"))
	v["kube.budget_ratio"] = ratio(deployNS/req, nsPerReq("docker")+nsPerReq("kube")+nsPerReq("container"))

	for _, m := range perLayer {
		if _, ok := v[m.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not produced", m.Name)
		}
	}
	return v, nil
}

// withUnits attaches each metric's unit, keeping only the listed metrics.
func withUnits(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, m := range defs {
		out[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}
