package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/dispatch_order.golden from the current output")

// orderScheduler routes each client of TestDispatchOrderMatchesParent by
// its own policy: cloud is forwarded to the cloud, best is served by the
// nearest running instance while its nearest cluster deploys behind it
// (ProximityScheduler), and every other client waits for its nearest
// cluster (WaitNearestScheduler).
type orderScheduler struct{ cloud, best simnet.Addr }

func (s orderScheduler) Choose(st State) Choice {
	switch st.ClientIP {
	case s.cloud:
		return Choice{}
	case s.best:
		return ProximityScheduler{}.Choose(st)
	}
	return WaitNearestScheduler{}.Choose(st)
}

// TestDispatchOrderMatchesParent pins where every dispatch outcome lands in
// the kernel's order. Five clients send their SYN in the same instant, so
// five packet-ins reach the controller together:
//
//   - ue0 asks for a service that already runs on its nearest cluster;
//   - ue1 asks for a cold service, which deploys on fc1;
//   - ue2 asks for the same service and joins that pending deployment;
//   - ue3 is forwarded to the cloud;
//   - ue4 is served by fc0, which runs the cold service too, while fc1
//     deploys it in the background;
//   - ue5 asks for a WebAssembly service no cluster can run, so it is
//     forwarded to the cloud without a state query.
//
// Under parallel and serial state queries, the golden holds the instant and
// kernel step of every held-packet release (the table-out's pass through the
// switch) and of the controller's events, the span tree in emission order, each
// request's completion and the kernel's event and sequence counts. It was
// generated from the dispatcher that ran as one process per packet-in; the
// continuation must reproduce it byte for byte. Rewrite it with -update.
func TestDispatchOrderMatchesParent(t *testing.T) {
	var b strings.Builder
	for _, serial := range []bool{false, true} {
		dispatchOrderRun(t, &b, serial)
	}
	golden := filepath.Join("testdata", "dispatch_order.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, golden, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), golden, len(wl))
	}
}

const orderSecondYAML = `
spec:
  template:
    spec:
      containers:
      - name: api
        image: api:1
        ports:
        - containerPort: 8080
`

const orderWasmYAML = `
spec:
  template:
    spec:
      runtimeClassName: wasm
      containers:
      - name: fn
        image: fn:1
        ports:
        - containerPort: 8080
`

func dispatchOrderRun(t *testing.T, b *strings.Builder, serial bool) {
	tr := obs.NewTracer(0)
	cfg := Config{}
	cfg.SerialStateQueries = serial
	cfg.Trace = tr
	var events []string
	var k *sim.Kernel // nil while the rig registers its services
	cfg.Events = func(e obs.Event) {
		if k != nil {
			events = append(events, fmt.Sprintf("%v #%d %s", time.Duration(k.Now()), k.Steps(), e))
		}
	}
	// ue0 is nearest to fc0, everyone else to fc1.
	cfg.Distance = func(client simnet.Addr, cl cluster.Cluster) int {
		if (client == "10.0.1.1") == (cl.Name() == "fc0") {
			return 0
		}
		return 1
	}
	cfg.Scheduler = orderScheduler{cloud: "10.0.1.4", best: "10.0.1.5"}
	rg := newHotpathRig(t, 2, 6, cfg)
	fc0 := rg.clusters[0]
	fc0.exists, fc0.running = true, true
	fc0.lis = fc0.host.ServeHTTPAsync(fc0.port, cluster.Behavior{RespSize: simnet.KiB}.AsyncHandler())
	for i, y := range []string{orderSecondYAML, orderWasmYAML} {
		if _, err := rg.ctrl.RegisterService(y, spec.Registration{
			Domain: fmt.Sprintf("s%d.example.com", i), VIP: simnet.Addr(fmt.Sprintf("203.0.113.%d", 11+i)), Port: 80,
		}); err != nil {
			t.Fatal(err)
		}
	}
	k = rg.k
	var releases []string
	// A link hands the switch its packets right after the trace hook sees
	// them; a packet the ingress hook meets without that is the controller's
	// TableOut release.
	var delivered *simnet.Packet
	rg.egs.Network().PktTrace = func(_ sim.Time, where string, pkt *simnet.Packet) {
		if where == rg.sw.Name() {
			delivered = pkt
		}
	}
	rg.sw.SetIngressSteer(func(_ *openflow.Switch, pkt *simnet.Packet) bool {
		fromLink := pkt == delivered
		delivered = nil
		if !fromLink {
			releases = append(releases, fmt.Sprintf("%v #%d %s -> %s:%d", rg.k.Now(), rg.k.Steps(), pkt.SrcIP, pkt.DstIP, pkt.DstPort))
		}
		return false
	})
	var done []string
	vips := []simnet.Addr{"203.0.113.10", "203.0.113.11", "203.0.113.11", "203.0.113.10", "203.0.113.11", "203.0.113.12"}
	rg.k.At(time.Millisecond, func() {
		for i, cli := range rg.clients {
			cli.HTTPGetAsync(vips[i], 80, &simnet.HTTPRequest{}, 0, func(res *simnet.HTTPResult, err error) {
				done = append(done, fmt.Sprintf("%v #%d %s err=%v", rg.k.Now(), rg.k.Steps(), cli.IP(), err))
			})
		}
	})
	rg.k.RunUntil(time.Minute)

	mode := "parallel"
	if serial {
		mode = "serial"
	}
	fmt.Fprintf(b, "== %s state queries\n", mode)
	for _, r := range releases {
		fmt.Fprintf(b, "release %s\n", r)
	}
	for _, e := range events {
		fmt.Fprintf(b, "event %s\n", e)
	}
	for _, s := range tr.Spans() {
		fmt.Fprintf(b, "span %d<%d/%d %s %s %q [%v, %v] attempts=%d err=%q\n",
			s.ID, s.Parent, s.Root, s.Cat, s.Name, s.Detail, s.Start, s.End, s.Attempts, s.Err)
	}
	for _, d := range done {
		fmt.Fprintf(b, "done %s\n", d)
	}
	st := rg.k.Stats()
	fmt.Fprintf(b, "kernel events=%d scheduled=%d pending=%d deployments=%d cloud=%d redirections=%d\n",
		st.Events, st.Scheduled, st.Pending, rg.ctrl.Stats.Deployments, rg.ctrl.Stats.CloudForwards, rg.ctrl.Stats.Redirections)
	rg.k.Close()
}
