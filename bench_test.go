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
					var err error
					if res, err = edge.RunDispatchScale(benchSeed, clusters, mode.serial); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(ms(res.Dispatch), "dispatch_ms")
			})
		}
	}
}

// BenchmarkChurn_ControllerState replays 10k one-shot clients with short
// idle timeouts: the controller's cookie / client-location / flow-memory
// maps must peak at the idle-timeout window (not the client count) and
// drain to zero afterwards.
func BenchmarkChurn_ControllerState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := edge.RunCookieChurn(benchSeed, 10000)
		if err != nil {
			b.Fatal(err)
		}
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
