package experiments

import (
	"testing"
	"time"
)

func TestAblationFlowMemory(t *testing.T) {
	res, err := AblationFlowMemory(1)
	if err != nil {
		t.Fatal(err)
	}
	with, _ := res.Table.Cell("with FlowMemory", "median request")
	without, _ := res.Table.Cell("without FlowMemory", "median request")
	// Both modes punt the first packet to the controller; the memory
	// saves the scheduling/dispatch work, so the returning request is
	// faster with it.
	if with >= without {
		t.Fatalf("with memory (%v) not faster than without (%v)", with, without)
	}
	// Both still see one packet-in per expired flow.
	if res.PacketInsWith == 0 || res.PacketInsWithout == 0 {
		t.Fatalf("packet-ins = %d/%d", res.PacketInsWith, res.PacketInsWithout)
	}
}

func TestAblationIdleTimeout(t *testing.T) {
	timeouts := []time.Duration{time.Second, 10 * time.Second, time.Minute}
	res, err := AblationIdleTimeout(1, timeouts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 3 || len(res.FlowTableSizes) != 3 {
		t.Fatalf("rows = %d/%d", len(res.PacketIns), len(res.FlowTableSizes))
	}
	// Requests every 5 s: a 1 s timeout expires between requests (many
	// packet-ins), a 10 s timeout keeps the flow warm (few), a 1 min
	// timeout keeps it warm too.
	if !(res.PacketIns[0] > res.PacketIns[1] && res.PacketIns[1] >= res.PacketIns[2]) {
		t.Fatalf("packet-ins not decreasing with timeout: %v", res.PacketIns)
	}
	// Short timeouts still answer fast thanks to the FlowMemory: medians
	// must stay within low single-digit milliseconds for every setting.
	for _, to := range []string{"1s", "10s", "1m0s"} {
		v, ok := res.Table.Cell(to, "median request")
		if !ok {
			t.Fatalf("missing row %q", to)
		}
		if v > 5*time.Millisecond {
			t.Errorf("timeout %s: median %v, want low ms", to, v)
		}
	}
}

func TestAblationWaitingPolicy(t *testing.T) {
	res, err := AblationWaitingPolicy(1)
	if err != nil {
		t.Fatal(err)
	}
	waitFirst, _ := res.Cell("with-waiting", "first request")
	noWaitFirst, _ := res.Cell("no-wait (cloud first)", "first request")
	hybridFirst, _ := res.Cell("hybrid docker-first", "first request")
	// No-wait answers the first request from the cloud: tens of ms, far
	// below the with-waiting deployment.
	if noWaitFirst >= waitFirst {
		t.Fatalf("no-wait first (%v) not faster than with-waiting (%v)", noWaitFirst, waitFirst)
	}
	if noWaitFirst > 200*time.Millisecond {
		t.Fatalf("no-wait first = %v, want cloud RTT scale", noWaitFirst)
	}
	// The hybrid holds the request but only for Docker's sub-second start.
	if hybridFirst > time.Second {
		t.Fatalf("hybrid first = %v, want <1s", hybridFirst)
	}
	// All policies converge to edge latency for later requests (at most
	// one controller dispatch including cluster state queries).
	for _, row := range res.Rows() {
		later, _ := res.Cell(row, "later request")
		if later > 30*time.Millisecond {
			t.Errorf("%s: later request %v, want edge latency", row, later)
		}
	}
}

func TestFutureWorkServerless(t *testing.T) {
	res, err := FutureWorkServerless(1)
	if err != nil {
		t.Fatal(err)
	}
	wasm, _ := res.Cell("serverless (WASM)", "first request")
	docker, _ := res.Cell("docker", "first request")
	k8s, _ := res.Cell("kubernetes", "first request")
	// Cold-start ordering (Gackstatter et al.): WASM << container start
	// << orchestrated container start.
	if wasm > 100*time.Millisecond {
		t.Errorf("wasm first = %v, want tens of ms", wasm)
	}
	if docker < 5*wasm {
		t.Errorf("docker (%v) should dwarf wasm (%v)", docker, wasm)
	}
	if k8s < 3*docker {
		t.Errorf("k8s (%v) should dwarf docker (%v)", k8s, docker)
	}
	// Warm requests are equivalent across platforms.
	for _, row := range res.Rows() {
		warm, _ := res.Cell(row, "warm request")
		if warm > 5*time.Millisecond {
			t.Errorf("%s warm = %v", row, warm)
		}
	}
}

func TestAblationProactive(t *testing.T) {
	res, err := AblationProactive(1)
	if err != nil {
		t.Fatal(err)
	}
	onDemand, _ := res.Table.Cell("on-demand only", "median request")
	predicted, _ := res.Table.Cell("with EWMA prediction", "median request")
	// Without prediction every periodic request pays a cold Docker
	// scale-up (~0.5 s); with prediction the instance is already warm.
	if onDemand < 300*time.Millisecond {
		t.Fatalf("on-demand median = %v, want cold scale-ups", onDemand)
	}
	if predicted > 50*time.Millisecond {
		t.Fatalf("predicted median = %v, want warm-instance latency", predicted)
	}
	if res.ProactiveDeployments == 0 {
		t.Fatal("predictor never deployed proactively")
	}
}

func TestAblationProbeInterval(t *testing.T) {
	res, err := AblationProbeInterval(1, []time.Duration{5 * time.Millisecond, 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fine, _ := res.Cell("5ms", "median first request")
	coarse, _ := res.Cell("500ms", "median first request")
	// Coarse probing adds detection lag on the order of the interval.
	if coarse < fine+100*time.Millisecond {
		t.Fatalf("coarse probing (%v) not slower than fine (%v)", coarse, fine)
	}
	if fine > time.Second {
		t.Fatalf("fine-probe first request = %v, want <1s", fine)
	}
}

func TestAblationHierarchy(t *testing.T) {
	res, err := AblationHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := res.Cell("cold everywhere (wait)", "first request")
	far, _ := res.Cell("warm at far edge (no waiting)", "first request")
	near, _ := res.Cell("warm at near edge", "first request")
	// near < far << cold: the warm far edge answers in milliseconds (its
	// extra link latency visible vs near), while cold pays the deployment.
	if !(near < far && far < cold/5) {
		t.Fatalf("near=%v far=%v cold=%v: ordering broken", near, far, cold)
	}
	if far > 50*time.Millisecond {
		t.Fatalf("far-edge first request = %v, want low ms (no waiting)", far)
	}
}
