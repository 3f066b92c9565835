package core

import (
	"testing"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// TestDispatchSpanTreeCold checks the span tree for one cold request end to
// end: a single dispatch root whose children cover the fig. 7 pipeline
// (memory miss, state query, scheduling decision, flow install) and a deploy
// span — nested under the same root — whose phase children match what the
// fake cluster actually did (images pre-pulled, so create/scale_up/probe but
// no pull).
func TestDispatchSpanTreeCold(t *testing.T) {
	cfg := Config{}
	tr := obs.NewTracer(0)
	reg := obs.NewRegistry()
	cfg.Trace = tr
	cfg.Counters = reg
	rg := newHotpathRig(t, 1, 1, cfg)

	served := false
	cli := rg.clients[0]
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := cli.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("request failed: %v", err)
			return
		}
		served = true
	})
	rg.k.RunUntil(time.Minute)
	if !served {
		t.Fatal("request not served")
	}

	spans := tr.Spans()
	byName := map[string][]obs.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}

	if n := len(byName["dispatch"]); n != 1 {
		t.Fatalf("dispatch root spans = %d, want 1 (spans: %+v)", n, byName)
	}
	root := byName["dispatch"][0]
	if root.Parent != 0 || root.Root != root.ID || root.Err != "" {
		t.Fatalf("dispatch root = %+v, want Parent=0 Root=ID Err empty", root)
	}
	if root.Cat != "dispatch" {
		t.Fatalf("dispatch root category = %q, want dispatch", root.Cat)
	}

	// Every span in a single cold dispatch belongs to the one tree.
	for _, s := range spans {
		if s.Root != root.ID {
			t.Fatalf("span %q roots at %d, want dispatch root %d", s.Name, s.Root, root.ID)
		}
		if s.Err != "" {
			t.Fatalf("span %q carries error %q on the success path", s.Name, s.Err)
		}
		if s.End < s.Start {
			t.Fatalf("span %q ends (%v) before it starts (%v)", s.Name, s.End, s.Start)
		}
	}

	for _, name := range []string{"memory_miss", "state_query", "schedule", "flow_install"} {
		ss := byName[name]
		if len(ss) != 1 {
			t.Fatalf("%s spans = %d, want 1", name, len(ss))
		}
		if ss[0].Parent != root.ID {
			t.Fatalf("%s parent = %d, want dispatch root %d", name, ss[0].Parent, root.ID)
		}
	}
	if got := byName["memory_miss"][0].Cat; got != "flowmemory" {
		t.Fatalf("memory_miss category = %q, want flowmemory", got)
	}
	if got := byName["schedule"][0].Detail; got != rg.clusters[0].name {
		t.Fatalf("schedule detail = %q, want chosen cluster %q", got, rg.clusters[0].name)
	}

	if n := len(byName["deploy"]); n != 1 {
		t.Fatalf("deploy spans = %d, want 1", n)
	}
	dep := byName["deploy"][0]
	if dep.Parent != root.ID {
		t.Fatalf("deploy parent = %d, want dispatch root %d (FAST deploy nests under the dispatch)", dep.Parent, root.ID)
	}
	for _, name := range []string{"create", "scale_up", "probe"} {
		ss := byName[name]
		if len(ss) != 1 {
			t.Fatalf("%s spans = %d, want 1", name, len(ss))
		}
		if ss[0].Parent != dep.ID || ss[0].Cat != "deploy" {
			t.Fatalf("%s = %+v, want Parent=deploy(%d) Cat=deploy", name, ss[0], dep.ID)
		}
	}
	if len(byName["pull"]) != 0 {
		t.Fatalf("pull span emitted although the cluster had the images pre-pulled")
	}
	if got := byName["scale_up"][0].Attempts; got != 1 {
		t.Fatalf("scale_up attempts = %d, want 1", got)
	}
	// scale_up costs 50ms of virtual time in the rig; the spans must carry
	// kernel timestamps, not zeros.
	if d := byName["scale_up"][0].End - byName["scale_up"][0].Start; d < 50*time.Millisecond {
		t.Fatalf("scale_up span duration = %v, want >= 50ms of virtual time", d)
	}

	m := reg.Map()
	if m["dispatch_packet_ins_total"] != 1 {
		t.Fatalf("dispatch_packet_ins_total = %v, want 1 (map %v)", m["dispatch_packet_ins_total"], m)
	}
	if m["deploy_performed_total"] != 1 {
		t.Fatalf("deploy_performed_total = %v, want 1", m["deploy_performed_total"])
	}
}

// TestMemoryHitSpan checks the memorized-flow fast path: when the switch
// rule is gone but the FlowMemory still knows the instance, the re-punted
// packet produces a dispatch root with a single memory_hit child and no
// scheduling or deploy spans.
func TestMemoryHitSpan(t *testing.T) {
	cfg := Config{}
	tr := obs.NewTracer(0)
	cfg.Trace = tr
	rg := newHotpathRig(t, 1, 1, cfg)

	cli := rg.clients[0]
	get := func() {
		done := false
		rg.k.Go("ue", func(p *sim.Proc) {
			if _, err := cli.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
				t.Errorf("request failed: %v", err)
				return
			}
			done = true
		})
		rg.k.RunUntil(rg.k.Now() + sim.Time(time.Minute))
		if !done {
			t.Fatal("request not served")
		}
	}
	get()
	before := tr.Emitted()

	// Drop the installed redirect rules silently (no flow-removed
	// notification, so the FlowMemory keeps the instance) — the next packet
	// punts to the controller again and must be memory-served.
	for _, r := range rg.sw.Rules() {
		if r.Match.SrcIP != "" { // keep the VIP punt rules
			rg.sw.DeleteFlows(r.Cookie)
		}
	}
	get()

	var hits, misses, roots []obs.Span
	for _, s := range tr.Spans() {
		switch s.Name {
		case "memory_hit":
			hits = append(hits, s)
		case "memory_miss":
			misses = append(misses, s)
		case "dispatch":
			roots = append(roots, s)
		}
	}
	if len(hits) != 1 || len(misses) != 1 || len(roots) != 2 {
		t.Fatalf("hits=%d misses=%d dispatch roots=%d, want 1/1/2 (emitted %d -> %d)",
			len(hits), len(misses), len(roots), before, tr.Emitted())
	}
	hit := hits[0]
	if hit.Cat != "flowmemory" || hit.Parent != hit.Root {
		t.Fatalf("memory_hit span = %+v, want Cat=flowmemory Parent=Root", hit)
	}
	if hit.Detail != rg.clusters[0].name {
		t.Fatalf("memory_hit detail = %q, want cluster %q", hit.Detail, rg.clusters[0].name)
	}
	// The memory-served tree is just root + hit: no scheduling, no deploy.
	for _, s := range tr.Spans() {
		if s.Root == hit.Root && s.Name != "dispatch" && s.Name != "memory_hit" {
			t.Fatalf("memory-served tree contains unexpected span %q", s.Name)
		}
	}
}
