// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI). Each benchmark runs the corresponding experiment on the simulated
// C³ testbed and reports the headline medians as custom metrics
// (unit suffix _ms = milliseconds of *virtual* time); the full tables are
// written to the benchmark log. Simulations are deterministic per seed, so
// b.N iterations measure harness cost while the reported medians are
// stable.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package transparentedge_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	edge "transparentedge"
)

const benchSeed = 42

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTableI_Catalog regenerates Table I (the four edge services with
// their image sizes, layer and container counts).
func BenchmarkTableI_Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := edge.RunTableI()
		if len(res.Rows) != 4 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
		}
	}
}

// BenchmarkFig09_RequestDistribution regenerates fig. 9: 1708 requests to
// 42 edge services over five minutes with a >=20 per-service floor.
func BenchmarkFig09_RequestDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := edge.RunFig9And10(benchSeed)
		total := 0
		max := 0
		for _, c := range res.PerService {
			total += c
			if c > max {
				max = c
			}
		}
		if total != 1708 || len(res.PerService) != 42 {
			b.Fatalf("trace = %d req / %d services", total, len(res.PerService))
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
			b.ReportMetric(float64(max), "max_req_per_service")
		}
	}
}

// BenchmarkFig10_DeploymentDistribution regenerates fig. 10: 42 on-demand
// deployments over five minutes with an early burst of several per second.
func BenchmarkFig10_DeploymentDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := edge.RunFig9And10(benchSeed)
		deploys := 0
		for _, n := range res.DeploysPerSecond {
			deploys += n
		}
		if deploys != 42 {
			b.Fatalf("deployments = %d", deploys)
		}
		if i == 0 {
			b.ReportMetric(float64(res.MaxDeploysPerSec), "max_deploys_per_s")
		}
	}
}

// BenchmarkFig11_ScaleUp regenerates fig. 11: median total time of the
// deployment-triggering requests when services only need the Scale Up
// phase (images cached, containers/objects created), per service and
// cluster. Paper shape: Docker < 1 s for the web servers, Kubernetes ≈ 3 s,
// ResNet slowest everywhere, Asm ≈ Nginx.
func BenchmarkFig11_ScaleUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunScaleUpStudy(benchSeed, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Totals.String())
			ngxD, _ := res.Totals.Cell(edge.Nginx, "Docker")
			ngxK, _ := res.Totals.Cell(edge.Nginx, "K8s")
			b.ReportMetric(ms(ngxD), "nginx_docker_ms")
			b.ReportMetric(ms(ngxK), "nginx_k8s_ms")
		}
	}
}

// BenchmarkFig12_CreateScaleUp regenerates fig. 12: as fig. 11 but with the
// Create phase on the request path (≈ +100 ms on Docker).
func BenchmarkFig12_CreateScaleUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunScaleUpStudy(benchSeed, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Totals.String())
			ngxD, _ := res.Totals.Cell(edge.Nginx, "Docker")
			b.ReportMetric(ms(ngxD), "nginx_docker_ms")
		}
	}
}

// BenchmarkFig13_PullTimes regenerates fig. 13: total time to pull each
// service's images onto the EGS from Docker Hub / GCR versus from a private
// in-network registry (the latter saves ≈ 1.5-2 s).
func BenchmarkFig13_PullTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunFig13Pull(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			pub, _ := res.Table.Cell(edge.Nginx, "DockerHub/GCR")
			priv, _ := res.Table.Cell(edge.Nginx, "Private")
			b.ReportMetric(ms(pub), "nginx_hub_ms")
			b.ReportMetric(ms(pub-priv), "nginx_private_saving_ms")
		}
	}
}

// BenchmarkFig14_ReadyWaitScaleUp regenerates fig. 14: the controller-side
// port-probe wait after the Scale Up phase (most of the Kubernetes total;
// dominated by the model load for ResNet).
func BenchmarkFig14_ReadyWaitScaleUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunScaleUpStudy(benchSeed, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.ReadyWait.String())
			resnetD, _ := res.ReadyWait.Cell(edge.ResNet, "Docker")
			b.ReportMetric(ms(resnetD), "resnet_docker_wait_ms")
		}
	}
}

// BenchmarkFig15_ReadyWaitCreateScaleUp regenerates fig. 15: the wait until
// ready when Create + Scale Up both run on demand.
func BenchmarkFig15_ReadyWaitCreateScaleUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunScaleUpStudy(benchSeed, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.ReadyWait.String())
		}
	}
}

// BenchmarkFig16_WarmRequests regenerates fig. 16: request total time with
// the instance already running — ≈ 1 ms for the web services on either
// cluster type, two orders of magnitude more for ResNet.
func BenchmarkFig16_WarmRequests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunFig16Warm(benchSeed, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			ngx, _ := res.Table.Cell(edge.Nginx, "Docker")
			resnet, _ := res.Table.Cell(edge.ResNet, "Docker")
			b.ReportMetric(ms(ngx), "nginx_ms")
			b.ReportMetric(ms(resnet), "resnet_ms")
		}
	}
}

// BenchmarkDiscussion_HybridDockerK8s regenerates the §VII comparison: the
// hybrid answers the first request at Docker speed while Kubernetes takes
// over the service afterwards.
func BenchmarkDiscussion_HybridDockerK8s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunHybridStudy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if !res.KubernetesTookOver {
			b.Fatal("kubernetes did not take over")
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			hyb, _ := res.Table.Cell("hybrid", "first request")
			k8s, _ := res.Table.Cell("k8s-only", "first request")
			b.ReportMetric(ms(hyb), "hybrid_first_ms")
			b.ReportMetric(ms(k8s), "k8s_first_ms")
		}
	}
}

// BenchmarkAblation_FlowMemory quantifies the §V FlowMemory design: a
// returning client whose switch flow idle-expired is re-served from memory
// without re-running the scheduler and cluster state queries.
func BenchmarkAblation_FlowMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunAblationFlowMemory(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			with, _ := res.Table.Cell("with FlowMemory", "median request")
			without, _ := res.Table.Cell("without FlowMemory", "median request")
			b.ReportMetric(ms(with), "with_memory_ms")
			b.ReportMetric(ms(without), "without_memory_ms")
		}
	}
}

// BenchmarkAblation_IdleTimeout sweeps the switch idle timeout: low
// timeouts shrink the flow table at the cost of packet-ins, which the
// FlowMemory keeps cheap.
func BenchmarkAblation_IdleTimeout(b *testing.B) {
	timeouts := []time.Duration{time.Second, 10 * time.Second, time.Minute}
	for i := 0; i < b.N; i++ {
		res, err := edge.RunAblationIdleTimeout(benchSeed, timeouts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s packet-ins per setting: %v, peak flow rules: %v",
				res.Table.String(), res.PacketIns, res.FlowTableSizes)
			b.ReportMetric(float64(res.PacketIns[0]), "packetins_1s_timeout")
			b.ReportMetric(float64(res.PacketIns[2]), "packetins_1m_timeout")
		}
	}
}

// BenchmarkAblation_WaitingPolicy compares the §IV policies on a cold edge:
// with-waiting, no-wait (cloud first), and the §VII hybrid.
func BenchmarkAblation_WaitingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunAblationWaitingPolicy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			noWait, _ := res.Table.Cell("no-wait (cloud first)", "first request")
			b.ReportMetric(ms(noWait), "nowait_first_ms")
		}
	}
}

// BenchmarkFutureWork_ServerlessColdStart runs the §VIII evaluation: the
// same web service cold-started via WASM serverless, Docker, and
// Kubernetes through the transparent-access path.
func BenchmarkFutureWork_ServerlessColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunFutureWorkServerless(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table.String())
			wasm, _ := res.Table.Cell("serverless (WASM)", "first request")
			dkr, _ := res.Table.Cell("docker", "first request")
			b.ReportMetric(ms(wasm), "wasm_first_ms")
			b.ReportMetric(ms(dkr), "docker_first_ms")
		}
	}
}

// BenchmarkScale_LargeTrace pushes the simulator well beyond the paper's
// workload: 200 edge services and 8000 requests over ten minutes against
// the Docker cluster, measuring wall-clock cost of the whole discrete-event
// simulation (deployments, flows, FlowMemory, traffic).
func BenchmarkScale_LargeTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := edge.DefaultTraceConfig(benchSeed)
		cfg.Services = 200
		cfg.TotalRequests = 8000
		cfg.MinPerService = 10
		cfg.Duration = 10 * time.Minute
		tr := edge.GenerateTrace(cfg)
		tb := edge.NewTestbed(edge.TestbedOptions{Seed: benchSeed, EnableDocker: true})
		res, err := edge.ReplayTrace(tb, tr, edge.Nginx, true, true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors != 0 || res.Totals.Len() != 8000 {
			b.Fatalf("replay = %d measured, %d errors", res.Totals.Len(), res.Errors)
		}
		if i == 0 {
			b.ReportMetric(float64(res.FirstRequests.Len()), "deployments")
			b.ReportMetric(ms(res.Totals.Median()), "median_ms")
		}
	}
}

// replayScale runs one large-trace replay per iteration and reports the
// engine's cost metrics: wall time (ns/op), allocations per trace request,
// and bytes retained by the result series.
func replayScale(b *testing.B, requests int) {
	b.ReportAllocs()
	var res edge.ReplayScaleResult
	for i := 0; i < b.N; i++ {
		res = edge.RunReplayScale(benchSeed, requests)
		if res.Deployments != 8 {
			b.Fatalf("deployments = %d, want 8", res.Deployments)
		}
	}
	b.ReportMetric(res.AllocsPerRequest, "allocs/request")
	b.ReportMetric(float64(res.SeriesBytes), "series_bytes")
	b.ReportMetric(ms(res.Median), "median_ms")
	b.Logf("\n%s", res.String())
}

// BenchmarkReplayScale_10k..1M sweep the replay engine across trace sizes;
// allocs/request and series_bytes must stay ~flat from 10k to 1M.
func BenchmarkReplayScale_10k(b *testing.B)  { replayScale(b, 10_000) }
func BenchmarkReplayScale_100k(b *testing.B) { replayScale(b, 100_000) }
func BenchmarkReplayScale_1M(b *testing.B)   { replayScale(b, 1_000_000) }

// machineMetrics records the parallel-hardware context a stored bench file
// needs to make its speedup numbers interpretable: a 1.0x speedup is a
// regression on 16 cores and expected on 1.
func machineMetrics(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "cores")
}

// benchReplayShard runs the multi-region replay as separate serial (one
// kernel) and sharded (eight kernels, one per region plus the backbone)
// sub-benchmarks, so each strategy gets its own timing and allocation line
// in the bench JSON instead of both being folded into one iteration. The
// sharded run asserts bit-identical fingerprints against the serial one on
// every machine. The >= 3x speedup floor lives in its own gate
// sub-benchmark: conservative-lookahead windows cannot beat the serial
// kernel without parallel hardware, so on core-starved machines the gate
// skips with a message instead of failing.
func benchReplayShard(b *testing.B, requests int) {
	var serial, sharded edge.ReplayShardResult
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serial = edge.RunReplayShard(benchSeed, requests, 1, nil)
			if serial.Errors != 0 {
				b.Fatalf("serial replay errors = %d", serial.Errors)
			}
		}
		b.ReportMetric(ms(serial.Wall), "wall_ms")
		b.ReportMetric(serial.AllocsPerRequest, "allocs/request")
		b.ReportMetric(ms(serial.Median), "median_ms")
		machineMetrics(b)
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sharded = edge.RunReplayShard(benchSeed, requests, 8, nil)
			if sharded.Errors != 0 {
				b.Fatalf("sharded replay errors = %d", sharded.Errors)
			}
		}
		b.ReportMetric(ms(sharded.Wall), "wall_ms")
		b.ReportMetric(sharded.AllocsPerRequest, "allocs/request")
		b.ReportMetric(ms(sharded.Median), "median_ms")
		machineMetrics(b)
		b.Logf("\n%s", sharded.String())
		if serial.Wall > 0 && serial.Fingerprint() != sharded.Fingerprint() {
			b.Fatalf("sharded run diverges from serial: %016x != %016x",
				sharded.Fingerprint(), serial.Fingerprint())
		}
	})
	b.Run("speedup-gate", func(b *testing.B) {
		if serial.Wall == 0 || sharded.Wall == 0 {
			b.Skip("serial or sharded sub-benchmark filtered out; no speedup reference")
		}
		speedup := float64(serial.Wall) / float64(sharded.Wall)
		b.ReportMetric(speedup, "speedup")
		machineMetrics(b)
		if cores := runtime.NumCPU(); cores < 4 {
			b.Skipf("speedup gate needs >= 4 cores, have %d (measured %.2fx)", cores, speedup)
		} else if speedup < 3 {
			b.Fatalf("speedup %.2fx < 3x over serial on %d cores", speedup, cores)
		}
	})
}

// BenchmarkReplayShard is the tentpole gate: a 1M-request trace over eight
// edge regions, serial vs eight shards, bit-identical results. The 10M
// variant (the paper-scale target: 10M requests in roughly the serial
// engine's 1M wall time, given >= 8 cores) is opt-in via `make bench-10m` —
// it is a multi-minute run on small machines.
func BenchmarkReplayShard(b *testing.B)     { benchReplayShard(b, 1_000_000) }
func BenchmarkReplayShard_10M(b *testing.B) { benchReplayShard(b, 10_000_000) }

// BenchmarkObsOverhead measures the observability tax on the replay engine:
// the same 100k-request replay with obs off (the nil-handle zero-cost path)
// and with a tracer ring plus counter registry attached. allocs/request of
// the off case must match BenchmarkReplayScale_100k; the traced case pays
// only for span recording, never for extra simulation work.
func BenchmarkObsOverhead(b *testing.B) {
	const requests = 100_000
	run := func(b *testing.B, makeOpts func() []edge.ExperimentOption) {
		b.ReportAllocs()
		var res edge.ReplayScaleResult
		for i := 0; i < b.N; i++ {
			res = edge.RunReplayScale(benchSeed, requests, makeOpts()...)
			if res.Errors != 0 {
				b.Fatalf("replay errors = %d", res.Errors)
			}
		}
		b.ReportMetric(res.AllocsPerRequest, "allocs/request")
		b.ReportMetric(float64(res.Spans), "spans")
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() []edge.ExperimentOption { return nil })
	})
	b.Run("traced", func(b *testing.B) {
		run(b, func() []edge.ExperimentOption {
			return []edge.ExperimentOption{
				edge.WithTrace(edge.NewTracer(0)),
				edge.WithCounters(edge.NewCounterRegistry()),
			}
		})
	})
}

// BenchmarkAttribOverhead measures the latency-attribution tax (`make
// bench` records it in BENCH_attrib.json). A 10k-request replay's span
// stream is recorded once, then fed to a nil collector (the off path, which
// must stay allocation-free — asserted, not just reported) and to a live
// collector paying the real cost: tree assembly, the exclusive-time sweep,
// critical-path marking, and flame-stack folding. The replay sub-benchmark
// shows the end-to-end allocs/request with attribution attached, comparable
// against BenchmarkReplayScale_10k's baseline.
func BenchmarkAttribOverhead(b *testing.B) {
	const requests = 10_000
	var spans []edge.Span
	rec := edge.NewTracer(1)
	rec.SetSink(func(s edge.Span) { spans = append(spans, s) })
	if res := edge.RunReplayScale(benchSeed, requests, edge.WithTrace(rec)); res.Errors != 0 {
		b.Fatalf("recording replay errors = %d", res.Errors)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		var col *edge.AttribCollector
		if allocs := testing.AllocsPerRun(2, func() {
			for _, s := range spans {
				col.Observe(s)
			}
			col.EndStream()
		}); allocs != 0 {
			b.Fatalf("nil collector allocated %.0f times per stream", allocs)
		}
		for i := 0; i < b.N; i++ {
			for _, s := range spans {
				col.Observe(s)
			}
			col.EndStream()
		}
		b.ReportMetric(float64(len(spans)), "spans")
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		col := edge.NewAttribCollector(edge.AttribOptions{})
		for i := 0; i < b.N; i++ {
			for _, s := range spans {
				col.Observe(s)
			}
			col.EndStream()
		}
		rep := col.Report()
		if rep.Trees == 0 {
			b.Fatal("no trees attributed")
		}
		b.ReportMetric(float64(rep.Trees)/float64(b.N), "trees/op")
		b.ReportMetric(float64(len(spans)), "spans")
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		var res edge.ReplayScaleResult
		for i := 0; i < b.N; i++ {
			col := edge.NewAttribCollector(edge.AttribOptions{})
			res = edge.RunReplayScale(benchSeed, requests, edge.WithAttrib(col))
			if res.Errors != 0 {
				b.Fatalf("replay errors = %d", res.Errors)
			}
		}
		b.ReportMetric(res.AllocsPerRequest, "allocs/request")
	})
}

// benchSteerBackends replays the fig. 9-style trace under one steering
// backend per sub-benchmark and reports the backend's control-plane cost
// next to the engine metrics: flow-mod messages (total and per 1k
// requests — zero for the stateless backend) and the backend's
// table-entry high-water (what openflow mirrors into the switch table).
func benchSteerBackends(b *testing.B, requests int) {
	for _, backend := range []string{"openflow", "srv6"} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			var res edge.ReplayScaleResult
			var ctrs map[string]float64
			for i := 0; i < b.N; i++ {
				reg := edge.NewCounterRegistry()
				res = edge.RunReplayScale(benchSeed, requests,
					edge.WithSteerBackend(backend), edge.WithCounters(reg))
				if res.Errors != 0 {
					b.Fatalf("replay errors = %d", res.Errors)
				}
				ctrs = reg.Map()
			}
			b.ReportMetric(ctrs["steer_flow_mods_total"], "flowmods")
			b.ReportMetric(ctrs["steer_flow_mods_total"]*1000/float64(requests), "flowmods/kreq")
			b.ReportMetric(ctrs["steer_entries_max"], "entries_peak")
			b.ReportMetric(ms(res.Median), "median_ms")
			b.ReportMetric(res.AllocsPerRequest, "allocs/request")
		})
	}
}

// BenchmarkSteerBackends compares the per-flow rule installer against the
// stateless SRv6-style ingress encoding at 100k and 1M requests (`make
// bench` records both in BENCH_steer.json): request outcomes must match
// while the stateless backend sends zero flow-mods.
func BenchmarkSteerBackends_100k(b *testing.B) { benchSteerBackends(b, 100_000) }
func BenchmarkSteerBackends_1M(b *testing.B)   { benchSteerBackends(b, 1_000_000) }

// BenchmarkDispatch_StateQueries measures the dispatcher's packet-in
// latency as the cluster count grows, for both state-gathering modes: the
// parallel default stays ~flat (charged latency = max over clusters) while
// the paper's original serial mode grows linearly (sum over clusters).
func BenchmarkDispatch_StateQueries(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"parallel", false}, {"serial", true}} {
		for _, clusters := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/clusters=%d", mode.name, clusters), func(b *testing.B) {
				var res edge.DispatchScaleResult
				for i := 0; i < b.N; i++ {
					res = edge.RunDispatchScale(benchSeed, clusters, mode.serial)
				}
				b.ReportMetric(ms(res.Dispatch), "dispatch_ms")
			})
		}
	}
}

// BenchmarkSweep runs the default 8-variant with/without-waiting sweep
// serially and across all cores, verifies the per-variant metrics are
// bit-identical (each variant owns a private kernel, so worker scheduling
// cannot leak into results), and reports the wall-clock speedup. On >= 4
// cores the parallel run must be at least 3x faster; on smaller machines
// only the parity is asserted.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	variants := edge.WaitingSweepVariants(4, 2000) // 4 seeds x 2 waiting modes
	requests := 0
	var serialWall, parallelWall time.Duration
	for i := 0; i < b.N; i++ {
		serial := edge.RunSweep(variants, 1)
		parallel := edge.RunSweep(variants, 0)
		requests = 0
		for j := range serial.Variants {
			s, p := serial.Variants[j], parallel.Variants[j]
			if s.Err != nil || p.Err != nil {
				b.Fatalf("variant %s failed: %v / %v", s.Variant.Label(), s.Err, p.Err)
			}
			if s.Fingerprint() != p.Fingerprint() {
				b.Fatalf("variant %s: serial and parallel metrics diverge", s.Variant.Label())
			}
			requests += s.Requests
		}
		if serial.Merged.Fingerprint() != parallel.Merged.Fingerprint() {
			b.Fatal("merged histograms diverge between serial and parallel runs")
		}
		serialWall, parallelWall = serial.Wall, parallel.Wall
	}
	speedup := float64(serialWall) / float64(parallelWall)
	b.ReportMetric(ms(serialWall), "serial_ms")
	b.ReportMetric(ms(parallelWall), "parallel_ms")
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(requests), "requests")
	if runtime.NumCPU() >= 4 && speedup < 3 {
		b.Fatalf("speedup %.2fx < 3x over serial on %d cores", speedup, runtime.NumCPU())
	}
}

// BenchmarkChurn_ControllerState replays 10k one-shot clients with short
// idle timeouts: the controller's cookie / client-location / flow-memory
// maps must peak at the idle-timeout window (not the client count) and
// drain to zero afterwards.
func BenchmarkChurn_ControllerState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := edge.RunCookieChurn(benchSeed, 10000)
		if res.FinalCookies != 0 || res.FinalClientLocs != 0 || res.FinalMemory != 0 {
			b.Fatalf("controller state leaked: %d cookies / %d client locs / %d memory entries",
				res.FinalCookies, res.FinalClientLocs, res.FinalMemory)
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
			b.ReportMetric(float64(res.PeakCookies), "peak_cookies")
			b.ReportMetric(float64(res.PeakClientLocs), "peak_client_locs")
			b.ReportMetric(float64(res.PeakMemory), "peak_memory")
		}
	}
}
