package steer

import (
	"testing"
	"time"

	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// notifyStub routes the switches' flow-removed notifications into the
// backend, standing in for core.Controller.HandleFlowRemoved.
type notifyStub struct{ b *OpenFlow }

func (s *notifyStub) HandlePacketIn(ev openflow.PacketIn) {}
func (s *notifyStub) HandleFlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) {
	s.b.FlowRemoved(sw, rule)
}

// steerRig builds two bare switches and a bound OpenFlow backend with the
// given idle timeout.
func steerRig(t *testing.T, idle time.Duration) (*sim.Kernel, *OpenFlow, *openflow.Switch, *openflow.Switch) {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw1 := openflow.NewSwitch(n, "sw1", openflow.DefaultConfig())
	sw2 := openflow.NewSwitch(n, "sw2", openflow.DefaultConfig())
	b := NewOpenFlow()
	b.Bind(Params{Kernel: k, FlowPriority: 100, IdleTimeout: idle})
	stub := &notifyStub{b: b}
	sw1.SetController(stub)
	sw2.SetController(stub)
	b.AttachSwitch(sw1)
	b.AttachSwitch(sw2)
	return k, b, sw1, sw2
}

var (
	testFlow = Flow{Client: simnet.Addr("10.0.1.1"), VIP: simnet.Addr("203.0.113.10"), Port: 80}
	testEP   = Endpoint{Addr: simnet.Addr("10.0.0.10"), Port: 32000}
)

// TestReAnchorAfterForwardExpiry pins the handover after a pair outlived
// its forward rule's own deadline: the client went quiet while response
// traffic kept hitting the reverse rule, which keeps the whole pair — then
// the pair idles out as a unit and a handover arrives. The re-anchor counts
// 2 (install) + 2 (re-install) flow-mods: no rule is left on the old switch
// to delete, and no phantom delete is sent for it.
func TestReAnchorAfterForwardExpiry(t *testing.T) {
	const idle = 50 * time.Millisecond
	k, b, sw1, sw2 := steerRig(t, idle)
	b.InstallRedirect(sw1, testFlow, testEP)
	if got := b.Stats(); b.Entries() != 1 || got.FlowMods != 2 {
		t.Fatalf("after install: %+v, want 1 entry / 2 flow-mods", got)
	}

	// Responses only, every 80 % of the timeout, to twice the forward rule's
	// own deadline.
	pkt := &simnet.Packet{}
	for i := 0; i < 3; i++ {
		k.RunUntil(k.Now() + idle*8/10)
		*pkt = simnet.Packet{Kind: simnet.KindDATA, SrcIP: testEP.Addr, SrcPort: testEP.Port, DstIP: testFlow.Client, DstPort: 40000, Size: simnet.KiB}
		sw1.HandlePacket(nil, pkt)
	}
	k.RunUntil(k.Now() + idle/2)
	if sw1.RuleCount() != 2 || b.Entries() != 1 {
		t.Fatalf("%v after the forward rule's last hit: %d rules, %d entries; the reverse hits must keep the pair",
			k.Now(), sw1.RuleCount(), b.Entries())
	}
	k.RunUntil(k.Now() + idle)
	if sw1.RuleCount() != 0 || b.Entries() != 0 || len(b.pairs) != 0 {
		t.Fatalf("after the pair idled out: %d rules, %d entries, %d pairs; want all 0", sw1.RuleCount(), b.Entries(), len(b.pairs))
	}

	b.ReAnchor(sw1, sw2, testFlow, testEP)
	st := b.Stats()
	if st.FlowMods != 4 {
		t.Errorf("flow-mods = %d, want 2 + 2", st.FlowMods)
	}
	if b.Entries() != 1 || st.EntriesHighWater != 1 || len(b.pairs) != 1 {
		t.Errorf("entries = %d high = %d pairs = %d, want 1/1/1", b.Entries(), st.EntriesHighWater, len(b.pairs))
	}
	if got := sw2.RuleCount(); got != 2 {
		t.Errorf("new switch holds %d rules, want the forward+reverse pair", got)
	}
}

// TestReAnchorAfterFullExpiry drives the idle expiry through the real
// switch timer of a pair nothing ever hit, then a handover arrives.
// ReAnchor's release must be a no-op — no double-released cookie, no phantom
// flow-mod, no live-count skew.
func TestReAnchorAfterFullExpiry(t *testing.T) {
	k, b, sw1, sw2 := steerRig(t, 50*time.Millisecond)
	b.InstallRedirect(sw1, testFlow, testEP)
	k.RunUntil(time.Second)
	if got := sw1.RuleCount(); got != 0 {
		t.Fatalf("rules after idle expiry = %d, want 0", got)
	}
	if b.Entries() != 0 || len(b.pairs) != 0 {
		t.Fatalf("backend state after full expiry: entries=%d pairs=%d, want all 0", b.Entries(), len(b.pairs))
	}

	b.ReAnchor(sw1, sw2, testFlow, testEP)
	st := b.Stats()
	// 2 (install) + 0 (release no-op) + 2 (re-install).
	if st.FlowMods != 4 {
		t.Errorf("flow-mods = %d, want 4", st.FlowMods)
	}
	if b.Entries() != 1 || st.EntriesHighWater != 1 {
		t.Errorf("entries = %d high = %d, want 1/1", b.Entries(), st.EntriesHighWater)
	}
}

// recordingStub keeps what notifyStub passes on (a copy of the rule, which
// is only borrowed for the call).
type recordingStub struct {
	notifyStub
	rules []openflow.FlowRule
	flows []Flow
}

func (s *recordingStub) HandleFlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) {
	s.rules = append(s.rules, *rule)
	if f, ok := s.b.FlowRemoved(sw, rule); ok {
		s.flows = append(s.flows, f)
	}
}

// TestReverseNotificationDoesNotReportFlow pins the notification dispatch: a
// pair that idles out sends one flow-removed, for its forward rule, and the
// backend reports the client's flow from it. The reverse rule sends none —
// its match's SrcIP is the *instance*, and reporting it as a client flow
// would make the controller GC the wrong client's state.
func TestReverseNotificationDoesNotReportFlow(t *testing.T) {
	k, b, sw1, _ := steerRig(t, 50*time.Millisecond)
	stub := &recordingStub{notifyStub: notifyStub{b: b}}
	sw1.SetController(stub)
	b.InstallRedirect(sw1, testFlow, testEP)
	k.RunUntil(time.Second)
	if len(stub.rules) != 1 || stub.rules[0].Match.SrcIP != testFlow.Client || stub.rules[0].Match.SrcPort != 0 {
		t.Fatalf("notified rules = %+v, want the forward rule alone", stub.rules)
	}
	if len(stub.flows) != 1 || stub.flows[0] != testFlow {
		t.Errorf("reported flows = %+v, want %+v once", stub.flows, testFlow)
	}
	if len(b.pairs) != 0 || k.Pending() != 0 {
		t.Errorf("after expiry: %d pairs tracked, %d events pending; want 0, 0", len(b.pairs), k.Pending())
	}
}

// TestAllocsInstallRecheckRelease pins the steady-state churn cycle of one
// client's pair — InstallRedirect (which releases the previous pair), idle
// re-checks while traffic keeps both rules alive, and the next install's
// release — at zero allocations however many re-checks a pair lives through:
// the pair's cookie owns one re-armable idle event, and rules and cookie
// groups come off the switch's free lists.
func TestAllocsInstallRecheckRelease(t *testing.T) {
	const idle = 100 * time.Millisecond
	k, b, sw, _ := steerRig(t, idle)
	// Another client's permanent pair keeps both rule shapes' signature
	// maps alive, as a table with more than one client does.
	sw.AddFlow(openflow.FlowRule{Priority: 100, Match: openflow.Match{SrcIP: "10.0.1.2", DstIP: testFlow.VIP, DstPort: testFlow.Port}})
	sw.AddFlow(openflow.FlowRule{Priority: 100, Match: openflow.Match{SrcIP: testEP.Addr, SrcPort: testEP.Port, DstIP: "10.0.1.2"}})
	pkt := &simnet.Packet{}
	hit := func(src, dst simnet.Addr, srcPort, dstPort int) {
		*pkt = simnet.Packet{Kind: simnet.KindDATA, SrcIP: src, DstIP: dst, SrcPort: srcPort, DstPort: dstPort, Size: simnet.KiB}
		sw.HandlePacket(nil, pkt) // rewritten, then dropped: the bare switch has no route
	}
	cycle := func(rechecks int) func() {
		return func() {
			b.InstallRedirect(sw, testFlow, testEP)
			for i := 0; i < rechecks; i++ {
				// Traffic in both directions every 70 % of the timeout, so
				// each check finds its rule refreshed and re-arms.
				k.RunUntil(k.Now() + idle*35/100)
				hit(testFlow.Client, testFlow.VIP, 40000, testFlow.Port)
				k.RunUntil(k.Now() + idle/100) // through the pipeline before pkt is reused
				hit(testEP.Addr, testFlow.Client, testEP.Port, 40000)
				k.RunUntil(k.Now() + idle*34/100)
			}
			if sw.RuleCount() != 4 || b.Entries() != 1 || k.Pending() != 1 {
				t.Fatalf("after %d re-checks: %d rules, %d entries, %d pending events; want 4, 1, 1",
					rechecks, sw.RuleCount(), b.Entries(), k.Pending())
			}
		}
	}
	for i := 0; i < 5; i++ {
		cycle(3)() // warm the maps, the wheel slots and the switch's FIFO
	}
	bare := testing.AllocsPerRun(100, cycle(0))
	churned := testing.AllocsPerRun(100, cycle(3))
	if churned != bare {
		t.Errorf("%.0f allocs per cycle with 3 re-checks, %.0f with none: re-checks allocate", churned, bare)
	}
	if bare != 0 {
		t.Errorf("%.0f allocs per install/release cycle, want 0", bare)
	}
}
