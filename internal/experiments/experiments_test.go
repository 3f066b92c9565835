package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/simnet"
)

func TestTableI(t *testing.T) {
	res := TableI()
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]TableIRow{}
	for _, r := range res.Rows {
		byKey[r.Service] = r
	}
	if byKey[catalog.Nginx].Size != 135*simnet.MiB || byKey[catalog.Nginx].Layers != 6 {
		t.Errorf("nginx row = %+v", byKey[catalog.Nginx])
	}
	if byKey[catalog.NginxPy].Containers != 2 {
		t.Errorf("nginx+py row = %+v", byKey[catalog.NginxPy])
	}
	out := res.String()
	for _, want := range []string{"Asm", "Nginx", "ResNet", "POST", "308 MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9And10(t *testing.T) {
	res := Fig9And10(1)
	total := 0
	for _, c := range res.PerService {
		total += c
	}
	if total != 1708 || len(res.PerService) != 42 {
		t.Fatalf("trace = %d requests / %d services", total, len(res.PerService))
	}
	deploys := 0
	for _, n := range res.DeploysPerSecond {
		deploys += n
	}
	if deploys != 42 {
		t.Fatalf("fig. 10 counts %d deployments, want one per service", deploys)
	}
	// "up to eight deployments per second in the beginning"
	if res.MaxDeploysPerSec < 3 {
		t.Errorf("max deployments/s = %d, want an early burst", res.MaxDeploysPerSec)
	}
	if !strings.Contains(res.String(), "1708") {
		t.Errorf("summary missing request count: %s", res.String())
	}
}

func TestScaleUpStudyShape(t *testing.T) {
	// Reduced trace volume: shape assertions only need the 42 first
	// requests, which a 0.2x trace still contains.
	res, err := ScaleUpStudy(1, true, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range catalog.Keys() {
		docker, ok := res.Totals.Cell(key, "Docker")
		if !ok {
			t.Fatalf("missing Docker cell for %s", key)
		}
		k8s, _ := res.Totals.Cell(key, "K8s")
		// The paper's central result: the orchestrator adds seconds on
		// top of Docker's start for every service (for the tiny web
		// servers that is a multiple; for ResNet, whose model load
		// dominates both, it is an additive ~2.5s).
		if k8s < docker+1500*time.Millisecond {
			t.Errorf("%s: K8s %v not >> Docker %v", key, k8s, docker)
		}
		// Docker sub-second for the web servers.
		if key == catalog.Asm || key == catalog.Nginx {
			if docker > time.Second {
				t.Errorf("%s on Docker = %v, want <1s", key, docker)
			}
			if k8s < 2*time.Second || k8s > 4500*time.Millisecond {
				t.Errorf("%s on K8s = %v, want ~3s", key, k8s)
			}
		}
	}
	// Asm and Nginx start in near-identical time (container start is
	// runtime-dominated).
	asmD, _ := res.Totals.Cell(catalog.Asm, "Docker")
	ngxD, _ := res.Totals.Cell(catalog.Nginx, "Docker")
	diff := asmD - ngxD
	if diff < 0 {
		diff = -diff
	}
	if diff > 150*time.Millisecond {
		t.Errorf("Asm (%v) vs Nginx (%v) on Docker differ too much", asmD, ngxD)
	}
	// ResNet is the slowest everywhere, and its readiness wait dominates.
	resD, _ := res.Totals.Cell(catalog.ResNet, "Docker")
	if resD < 3*ngxD {
		t.Errorf("ResNet (%v) should dwarf Nginx (%v) on Docker", resD, ngxD)
	}
	resWait, _ := res.ReadyWait.Cell(catalog.ResNet, "Docker")
	if resWait < resD/4 {
		t.Errorf("ResNet wait (%v) should exceed a fourth of total (%v)", resWait, resD)
	}
	// Multi-container service costs more than single-container nginx.
	comboD, _ := res.Totals.Cell(catalog.NginxPy, "Docker")
	if comboD <= ngxD {
		t.Errorf("Nginx+Py (%v) not slower than Nginx (%v)", comboD, ngxD)
	}
}

func TestCreateAddsOverhead(t *testing.T) {
	with, err := ScaleUpStudy(1, true, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	without, err := ScaleUpStudy(1, false, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12 vs fig. 11: creating adds on the order of 100 ms on Docker.
	scaleOnly, _ := with.Totals.Cell(catalog.Nginx, "Docker")
	createScale, _ := without.Totals.Cell(catalog.Nginx, "Docker")
	delta := createScale - scaleOnly
	if delta < 30*time.Millisecond || delta > 300*time.Millisecond {
		t.Errorf("create overhead = %v (scale %v, create+scale %v), want ~100ms",
			delta, scaleOnly, createScale)
	}
}

func TestFig13PullShapes(t *testing.T) {
	res, err := Fig13Pull(1)
	if err != nil {
		t.Fatal(err)
	}
	pub := map[string]time.Duration{}
	priv := map[string]time.Duration{}
	for _, key := range catalog.Keys() {
		pub[key], _ = res.Cell(key, "DockerHub/GCR")
		priv[key], _ = res.Cell(key, "Private")
	}
	// Ordering by size: Asm << Nginx < Nginx+Py < ResNet.
	if !(pub[catalog.Asm] < pub[catalog.Nginx] &&
		pub[catalog.Nginx] < pub[catalog.NginxPy] &&
		pub[catalog.NginxPy] < pub[catalog.ResNet]) {
		t.Errorf("pull ordering wrong: %v", pub)
	}
	// Asm pull is latency-bound: well under a second.
	if pub[catalog.Asm] > time.Second {
		t.Errorf("Asm pull = %v, want RTT-bound", pub[catalog.Asm])
	}
	// Private registry saves ~1.5-2s on the large images.
	for _, key := range []string{catalog.Nginx, catalog.ResNet, catalog.NginxPy} {
		saving := pub[key] - priv[key]
		if saving < time.Second {
			t.Errorf("%s: private registry saving = %v (pub %v, priv %v), want >1s",
				key, saving, pub[key], priv[key])
		}
	}
}

func TestFig16WarmShapes(t *testing.T) {
	res, err := Fig16Warm(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{catalog.Asm, catalog.Nginx, catalog.NginxPy} {
		for _, col := range []string{"Docker", "K8s"} {
			v, ok := res.Cell(key, col)
			if !ok {
				t.Fatalf("missing cell %s/%s", key, col)
			}
			// "about a millisecond" for the web services.
			if v > 5*time.Millisecond {
				t.Errorf("%s on %s = %v, want ~1ms", key, col, v)
			}
		}
	}
	// No notable difference between the clusters once running.
	ngxD, _ := res.Cell(catalog.Nginx, "Docker")
	ngxK, _ := res.Cell(catalog.Nginx, "K8s")
	diff := ngxD - ngxK
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Errorf("cluster difference for warm nginx = %v, want negligible", diff)
	}
	// ResNet requires significantly longer.
	resD, _ := res.Cell(catalog.ResNet, "Docker")
	if resD < 100*time.Millisecond {
		t.Errorf("warm ResNet = %v, want >>1ms", resD)
	}
}

// TestHybridStudy also pins what drive owes every figure experiment: the
// study builds three testbeds, two with the Kubernetes model and its twenty
// parked control loops, and leaves no goroutine of them behind.
func TestHybridStudy(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := HybridStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	// More, not different: an earlier test's shard workers may still be exiting.
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after HybridStudy, %d before: a testbed was left unclosed", n, base)
	}
	dkr, _ := res.Table.Cell("docker-only", "first request")
	k8s, _ := res.Table.Cell("k8s-only", "first request")
	hyb, _ := res.Table.Cell("hybrid", "first request")
	// The hybrid answers the first request about as fast as pure Docker,
	// far faster than pure Kubernetes.
	if hyb > dkr+300*time.Millisecond {
		t.Errorf("hybrid first = %v vs docker %v", hyb, dkr)
	}
	if k8s < 2*hyb {
		t.Errorf("k8s-only first = %v should dwarf hybrid %v", k8s, hyb)
	}
	if !res.KubernetesTookOver {
		t.Error("hybrid: kubernetes did not take over future requests")
	}
}

func TestTraceConfigScaling(t *testing.T) {
	full := TraceConfig(1, 1)
	if full.TotalRequests != 1708 {
		t.Fatalf("full = %d", full.TotalRequests)
	}
	small := TraceConfig(1, 0.1)
	if small.TotalRequests >= full.TotalRequests {
		t.Fatalf("scaled = %d", small.TotalRequests)
	}
	if small.TotalRequests < small.Services*small.MinPerService {
		t.Fatal("scaled config infeasible")
	}
}
