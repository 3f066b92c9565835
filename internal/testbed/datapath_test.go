package testbed

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/openflow"
	"transparentedge/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata/datapath_order.golden from the current output")

// TestDataPathOrderMatchesParent pins the order of the warm data path on the
// flat testbed, where the clients and the EGS have a stack stage, the switch
// a pipeline stage, and here packets meet others in the same nanosecond:
//
//   - six clients send at once, so six SYNs reach the switch, and then the
//     EGS link, in the same nanosecond (one hits installed flows, five are
//     punted and released together);
//   - two clients send 5 µs apart, so the EGS's second answer enters its
//     stack stage while the first is still in it;
//   - a flow-mod lands while a SYN is inside the switch pipeline stage, so the
//     SYN must be looked up after it and count on the new rule.
//
// The golden holds every delivery (instant, node, packet), each request's
// completion and total, the new rule's counters, and the kernel's event
// counts on a line of their own. Rewrite it with -update.
func TestDataPathOrderMatchesParent(t *testing.T) {
	tb := New(Options{Seed: 1, EnableDocker: true})
	defer tb.Close()
	_, reg, err := tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	request := func(cli int) {
		tb.RequestAsync(cli, reg, catalog.Nginx, 0, func(res *simnet.HTTPResult, err error) {
			var total time.Duration
			if res != nil {
				total = res.Total
			}
			fmt.Fprintf(&b, "done %v %s total=%v err=%v\n", tb.K.Now(), tb.Clients[cli].IP(), total, err)
		})
	}
	// Warm-up: client 0's cold request deploys the service.
	tb.K.At(0, func() { request(0) })
	const warm = 10 * time.Second
	tb.K.RunUntil(warm)
	b.Reset()
	tr := simnet.NewTracer(tb.Net)

	tb.K.At(warm, func() {
		for i := 0; i < 6; i++ {
			request(i)
		}
	})
	staggered := warm + 100*time.Millisecond
	tb.K.At(staggered, func() { request(1) })
	tb.K.At(staggered+5*time.Microsecond, func() { request(2) })

	// Client 3's SYN reaches the switch after its stack stage, one 64-byte
	// serialization at 1 Gbps and the link latency; the flow-mod lands 10 µs
	// into the 20 µs pipeline stage that follows.
	flowMod := staggered + 100*time.Millisecond
	tb.K.At(flowMod, func() { request(3) })
	var added *openflow.FlowRule
	tb.K.At(flowMod+rpiProcDelay+512+rpiLinkLatency+10*time.Microsecond, func() {
		ip := tb.Clients[3].IP()
		for _, r := range tb.Switch.Rules() {
			if r.Match.SrcIP == ip && r.Match.DstIP == reg.VIP {
				added = tb.Switch.AddFlow(openflow.FlowRule{
					Priority: r.Priority + 1, Match: r.Match, Actions: r.Actions, Cookie: 7,
				})
				return
			}
		}
		t.Errorf("no installed rule for client %s at %v", ip, tb.K.Now())
	})
	tb.K.RunUntil(flowMod + time.Second)

	b.WriteString(tr.String())
	if added != nil {
		pkts, bytes := added.Stats()
		fmt.Fprintf(&b, "flow-mod rule %s: pkts %d bytes %d\n", added.Match, pkts, bytes)
	}
	st := tb.K.Stats()
	fmt.Fprintf(&b, "kernel events=%d scheduled=%d pending=%d\n", st.Events, st.Scheduled, st.Pending)

	golden := filepath.Join("testdata", "datapath_order.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
