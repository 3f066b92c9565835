package core_test

import (
	"strings"
	"testing"
	"time"

	"transparentedge/internal/core"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/srsteer"
)

// TestHandoverDuringDeployInstallsAtNewSwitch pins the mid-dispatch
// handover: the client's first SYN punts at gnb1 and is held while the
// on-demand deployment runs (~2 s); at 500 ms the client hands over to
// gnb2. The controller must install the redirect pair and re-inject the
// held packet at the client's *current* switch — read at install time, not
// captured at packet-in time — or the rules land on a switch the client
// left.
func TestHandoverDuringDeployInstallsAtNewSwitch(t *testing.T) {
	rg := newMobilityRig(t)
	if _, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		t.Fatal(err)
	}
	done := false
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("request: %v", err)
			return
		}
		done = true
		// Checked right at completion, before the 30s idle expiry.
		gnb1Rules, gnb2Rules := 0, 0
		for _, r := range rg.gnb1.Rules() {
			if r.Priority == 100 {
				gnb1Rules++
			}
		}
		for _, r := range rg.gnb2.Rules() {
			if r.Priority == 100 {
				gnb2Rules++
			}
		}
		if gnb2Rules != 2 {
			t.Errorf("gnb2 redirect rules = %d, want forward+reverse pair at the client's current switch", gnb2Rules)
		}
		if gnb1Rules != 0 {
			t.Errorf("gnb1 redirect rules = %d, want 0 (client left before install)", gnb1Rules)
		}
		if loc, ok := rg.ctrl.ClientLocation(rg.client.IP()); !ok || loc != rg.gnb2 {
			t.Errorf("client location = %+v, want gnb2", loc)
		}
		if rg.ctrl.PendingHandovers() != 0 {
			t.Errorf("pending handovers after dispatch = %d, want 0", rg.ctrl.PendingHandovers())
		}
	})
	rg.k.After(500*time.Millisecond, rg.moveClientToGnb2)
	rg.k.RunUntil(5 * time.Minute)
	if !done {
		t.Fatal("request incomplete")
	}
	if rg.ctrl.Stats.Deployments != 1 {
		t.Errorf("deployments = %d, want 1", rg.ctrl.Stats.Deployments)
	}
}

// TestHandoverGapRecordedOnRuleBasedBackend pins the continuity-gap
// accounting of the reactive backend: the gap opens at the handover and
// closes at the first steering action for the client afterwards (here the
// next request's packet-in), and the old switch's pair is released eagerly.
func TestHandoverGapRecordedOnRuleBasedBackend(t *testing.T) {
	rg := newMobilityRig(t)
	if _, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		t.Fatal(err)
	}
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("warm-up request: %v", err)
			return
		}
		// Let the connection teardown drain at gnb1 first, so the next
		// packet from the client is the post-silence SYN (a FIN straggler
		// arriving at gnb2 would close the gap early — correctly, but it
		// is not the scenario under test).
		p.Sleep(100 * time.Millisecond)
		rg.moveClientToGnb2()
		p.Sleep(time.Second)
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("post-handover request: %v", err)
		}
	})
	rg.k.RunUntil(5 * time.Minute)

	if rg.ctrl.Stats.Handovers != 1 {
		t.Fatalf("handovers = %d, want 1", rg.ctrl.Stats.Handovers)
	}
	gaps := rg.ctrl.ContinuityGaps()
	if gaps.Len() != 1 {
		t.Fatalf("continuity-gap samples = %d, want 1", gaps.Len())
	}
	if got := gaps.Median(); got < time.Second {
		t.Errorf("continuity gap = %v, want >= the client's 1s silence", got)
	}
	for _, r := range rg.gnb1.Rules() {
		if r.Priority == 100 {
			t.Errorf("stale redirect rule on old switch: %+v", r.Match)
		}
	}
	if rg.ctrl.PendingHandovers() != 0 {
		t.Errorf("pending handovers after re-anchor = %d, want 0", rg.ctrl.PendingHandovers())
	}
}

// TestStatelessHandoverReAnchorsEagerly pins the srv6 handover path: the
// shared binding table is valid at every switch, so NoteHandover re-anchors
// the client's flows immediately (zero continuity gap), the post-handover
// request is steered by gnb2's ingress hook without a packet-in, and no
// flow-mod ever reaches a switch.
func TestStatelessHandoverReAnchorsEagerly(t *testing.T) {
	rg := newMobilityRigWith(t, srsteer.New())
	if _, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		t.Fatal(err)
	}
	var pktInsAtHandover uint64
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("warm-up request: %v", err)
			return
		}
		p.Sleep(100 * time.Millisecond)
		rg.moveClientToGnb2()
		pktInsAtHandover = rg.ctrl.Stats.PacketIns
		p.Sleep(time.Second)
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("post-handover request: %v", err)
		}
	})
	// Long enough for both the binding idle timeout (30s) and the
	// FlowMemory idle timeout (2 min) to fire.
	rg.k.RunUntil(10 * time.Minute)

	if rg.ctrl.Stats.Handovers != 1 || rg.ctrl.Stats.HandoverReAnchors == 0 {
		t.Fatalf("handovers = %d re-anchors = %d, want 1 and >= 1",
			rg.ctrl.Stats.Handovers, rg.ctrl.Stats.HandoverReAnchors)
	}
	gaps := rg.ctrl.ContinuityGaps()
	if gaps.Len() == 0 || gaps.Percentile(99) != 0 {
		t.Errorf("stateless continuity gap: samples = %d p99 = %v, want samples > 0 and zero gap",
			gaps.Len(), gaps.Percentile(99))
	}
	if rg.ctrl.Stats.PacketIns != pktInsAtHandover {
		t.Errorf("post-handover request punted: packet-ins %d -> %d, want unchanged",
			pktInsAtHandover, rg.ctrl.Stats.PacketIns)
	}
	if st := rg.ctrl.SteerStats(); st.FlowMods != 0 {
		t.Errorf("stateless backend sent %d flow-mods", st.FlowMods)
	}
	// The 30s idle timeout GCs the binding and the client-location entry
	// even though no openflow flow-removed notification ever fires.
	if rg.ctrl.TrackedClients() != 0 {
		t.Errorf("tracked clients after idle expiry = %d, want 0", rg.ctrl.TrackedClients())
	}
	if rg.ctrl.PendingHandovers() != 0 {
		t.Errorf("pending handovers = %d, want 0", rg.ctrl.PendingHandovers())
	}
}

// handoverTrees extracts the "handover"-rooted span trees from a tracer:
// for each handover root span, the re-anchor children whose Parent is that
// root. Children are emitted before their root, so a tree is complete once
// the root appears.
func handoverTrees(tr *obs.Tracer) (roots []obs.Span, children map[uint64][]obs.Span) {
	children = make(map[uint64][]obs.Span)
	for _, s := range tr.Spans() {
		if s.Cat != "handover" {
			continue
		}
		if s.Name == "handover" {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return roots, children
}

// TestStatelessHandoverEmitsReanchorSpans pins the handover span tree on the
// stateless (srv6) path: NoteHandover re-anchors eagerly, so the tracer must
// show a zero-duration "handover" root with one "reanchor" child per moved
// flow, each naming the service endpoint and the switch pair.
func TestStatelessHandoverEmitsReanchorSpans(t *testing.T) {
	tr := obs.NewTracer(0)
	rg := newMobilityRigWith(t, srsteer.New(), func(cfg *core.Config) { cfg.Trace = tr })
	if _, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		t.Fatal(err)
	}
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("warm-up request: %v", err)
			return
		}
		p.Sleep(100 * time.Millisecond)
		rg.moveClientToGnb2()
	})
	rg.k.RunUntil(time.Minute)

	roots, children := handoverTrees(tr)
	if len(roots) != 1 {
		t.Fatalf("handover roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Dur() != 0 {
		t.Errorf("stateless handover root duration = %v, want 0 (eager re-anchor)", root.Dur())
	}
	if root.Detail != string(rg.client.IP()) {
		t.Errorf("root detail = %q, want client addr %q", root.Detail, rg.client.IP())
	}
	kids := children[root.ID]
	if want := int(rg.ctrl.Stats.HandoverReAnchors); len(kids) != want || want == 0 {
		t.Fatalf("reanchor children = %d, want %d (> 0, one per re-anchored flow)", len(kids), want)
	}
	for _, kid := range kids {
		if kid.Name != "reanchor" || kid.Root != root.ID {
			t.Errorf("child = %+v, want Name reanchor rooted at %d", kid, root.ID)
		}
		if kid.Start != root.End || kid.End != root.End {
			t.Errorf("child interval [%v, %v], want instantaneous at root end %v",
				kid.Start, kid.End, root.End)
		}
		if !strings.Contains(kid.Detail, "@") || !strings.Contains(kid.Detail, "gnb1->gnb2") {
			t.Errorf("child detail = %q, want service@addr and gnb1->gnb2", kid.Detail)
		}
	}
}

// TestRuleBasedHandoverEmitsReanchorSpan pins the span tree on the reactive
// (openflow) path: the handover stays pending until the client's next
// packet-in re-anchors it, so the root must span the continuity gap and its
// single "reanchor" child must name the resolving steering action and the
// switch pair.
func TestRuleBasedHandoverEmitsReanchorSpan(t *testing.T) {
	tr := obs.NewTracer(0)
	rg := newMobilityRigWith(t, nil, func(cfg *core.Config) { cfg.Trace = tr })
	if _, err := rg.ctrl.RegisterService(nginxYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	}); err != nil {
		t.Fatal(err)
	}
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("warm-up request: %v", err)
			return
		}
		p.Sleep(100 * time.Millisecond)
		rg.moveClientToGnb2()
		p.Sleep(time.Second)
		if _, err := rg.client.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("post-handover request: %v", err)
		}
	})
	rg.k.RunUntil(5 * time.Minute)

	roots, children := handoverTrees(tr)
	if len(roots) != 1 {
		t.Fatalf("handover roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Dur() < time.Second {
		t.Errorf("rule-based handover root duration = %v, want >= the client's 1s silence", root.Dur())
	}
	gaps := rg.ctrl.ContinuityGaps()
	if gaps.Len() == 1 && root.Dur() != gaps.Max() {
		t.Errorf("root duration %v != recorded continuity gap %v", root.Dur(), gaps.Max())
	}
	kids := children[root.ID]
	if len(kids) != 1 {
		t.Fatalf("reanchor children = %d, want exactly 1 (one resolving action)", len(kids))
	}
	kid := kids[0]
	if kid.Name != "reanchor" || kid.Root != root.ID {
		t.Errorf("child = %+v, want Name reanchor rooted at %d", kid, root.ID)
	}
	if !strings.HasSuffix(kid.Detail, " gnb1->gnb2") {
		t.Errorf("child detail = %q, want \"<action> gnb1->gnb2\"", kid.Detail)
	}
}
