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

// forwardRule returns the pair's installed forward rule (client-keyed match).
func forwardRule(t *testing.T, sw *openflow.Switch) *openflow.FlowRule {
	t.Helper()
	for _, r := range sw.Rules() {
		if r.Match.SrcIP == testFlow.Client && r.Match.SrcPort == 0 {
			return r
		}
	}
	t.Fatal("no forward rule installed")
	return nil
}

// TestReAnchorAfterForwardExpiry pins the remnant-pair handover: the
// client went quiet long enough for the forward rule to idle out (its
// flow-removed notification already consumed) while response traffic kept
// the reverse rule alive. A handover's ReAnchor must still delete that
// surviving reverse rule from the old switch — not orphan it — and must
// not double-count the release.
func TestReAnchorAfterForwardExpiry(t *testing.T) {
	_, b, sw1, sw2 := steerRig(t, time.Minute)
	b.InstallRedirect(sw1, testFlow, testEP)
	if got := b.Stats(); got.Entries != 1 || got.FlowMods != 2 {
		t.Fatalf("after install: %+v, want 1 entry / 2 flow-mods", got)
	}

	// The switch expires the forward rule and notifies; the reverse rule
	// survives on response traffic.
	b.FlowRemoved(sw1, forwardRule(t, sw1))
	if b.Entries() != 0 {
		t.Fatalf("entries after forward expiry = %d, want 0", b.Entries())
	}
	if len(b.pairs) != 1 {
		t.Fatalf("remnant pair not tracked: %d pairs", len(b.pairs))
	}

	b.ReAnchor(sw1, sw2, testFlow, testEP)
	// The old switch's surviving reverse rule must be gone.
	for _, r := range sw1.Rules() {
		if r.Priority == 100 && r.Match.DstIP == testFlow.Client {
			t.Errorf("reverse rule orphaned on old switch: %+v", r.Match)
		}
	}
	st := b.Stats()
	// 2 (install) + 1 (remnant release) + 2 (re-install) — no phantom mods.
	if st.FlowMods != 5 {
		t.Errorf("flow-mods = %d, want 5", st.FlowMods)
	}
	if st.Entries != 1 || st.EntriesHighWater != 1 {
		t.Errorf("entries = %d high = %d, want 1/1", st.Entries, st.EntriesHighWater)
	}
	if len(b.pairs) != 1 || len(b.byCookie) != 1 {
		t.Errorf("tracking maps = %d pairs / %d cookies, want 1/1", len(b.pairs), len(b.byCookie))
	}
	rules := 0
	for _, r := range sw2.Rules() {
		if r.Priority == 100 {
			rules++
		}
	}
	if rules != 2 {
		t.Errorf("new switch redirect rules = %d, want forward+reverse pair", rules)
	}
}

// TestReAnchorAfterFullExpiry drives the idle expiry through the real
// switch timers: both halves of the pair expire (both notify), then a
// handover arrives. ReAnchor's release must be a no-op — no
// double-released cookie, no phantom flow-mod, no live-count skew.
func TestReAnchorAfterFullExpiry(t *testing.T) {
	k, b, sw1, sw2 := steerRig(t, 50*time.Millisecond)
	b.InstallRedirect(sw1, testFlow, testEP)
	k.RunUntil(time.Second)
	if got := sw1.RuleCount(); got != 0 {
		t.Fatalf("rules after idle expiry = %d, want 0", got)
	}
	if b.Entries() != 0 || len(b.pairs) != 0 || len(b.byCookie) != 0 {
		t.Fatalf("backend state after full expiry: entries=%d pairs=%d cookies=%d, want all 0",
			b.Entries(), len(b.pairs), len(b.byCookie))
	}

	mods := sw1.FlowMods
	b.ReAnchor(sw1, sw2, testFlow, testEP)
	if sw1.FlowMods != mods {
		t.Errorf("release after full expiry sent %d flow-mods to old switch, want 0", sw1.FlowMods-mods)
	}
	st := b.Stats()
	// 2 (install) + 0 (release no-op) + 2 (re-install).
	if st.FlowMods != 4 {
		t.Errorf("flow-mods = %d, want 4", st.FlowMods)
	}
	if st.Entries != 1 || st.EntriesHighWater != 1 {
		t.Errorf("entries = %d high = %d, want 1/1", st.Entries, st.EntriesHighWater)
	}
}

// TestReverseNotificationDoesNotReportFlow pins the notification dispatch:
// a reverse rule's expiry is backend bookkeeping only — reporting it as a
// client flow would make the controller GC the wrong client's state (the
// reverse match's SrcIP is the *instance*, not a client).
func TestReverseNotificationDoesNotReportFlow(t *testing.T) {
	_, b, sw1, _ := steerRig(t, time.Minute)
	b.InstallRedirect(sw1, testFlow, testEP)
	var reverse *openflow.FlowRule
	for _, r := range sw1.Rules() {
		if r.Match.SrcPort != 0 {
			reverse = r
		}
	}
	if reverse == nil {
		t.Fatal("no reverse rule installed")
	}
	if _, ok := b.FlowRemoved(sw1, reverse); ok {
		t.Error("reverse-rule expiry reported as a client flow")
	}
	// The forward half still steers: the pair must stay live.
	if b.Entries() != 1 {
		t.Errorf("entries after reverse-only expiry = %d, want 1", b.Entries())
	}
	// The later forward expiry drops the whole pair from tracking.
	b.FlowRemoved(sw1, forwardRule(t, sw1))
	if len(b.pairs) != 0 || len(b.byCookie) != 0 {
		t.Errorf("tracking maps not drained: %d pairs / %d cookies", len(b.pairs), len(b.byCookie))
	}
}

// TestAllocsInstallRecheckRelease pins the steady-state churn cycle of one
// client's pair — InstallRedirect (which releases the previous pair), idle
// re-checks while traffic keeps both rules alive, and the next install's
// release — at a fixed allocation count that does not depend on how many
// re-checks a pair lives through: each rule owns one re-armable idle event.
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
			if sw.RuleCount() != 4 || b.Entries() != 1 || k.Pending() != 2 {
				t.Fatalf("after %d re-checks: %d rules, %d entries, %d pending events; want 4, 1, 2",
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
	// Two rules, each with its idle event and that event's callback, plus
	// the pair's tracking state.
	if bare > 7 {
		t.Errorf("%.0f allocs per install/release cycle, want <= 7", bare)
	}
}
