package steer

import (
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
)

// controllerCookieBase keeps controller-assigned flow cookies disjoint from
// the switch's auto-assigned cookie space, so deleting a client's redirect
// pair can never remove a punt rule.
const controllerCookieBase uint64 = 1 << 32

// pairKey identifies one installed redirect/cloud-forward pair.
type pairKey struct {
	sw *openflow.Switch
	f  Flow
}

// OpenFlow is the paper's steering mechanism: per-flow forward and reverse
// rewrite rules installed on the switch (fig. 2), identified by a
// controller-assigned cookie per client/service/switch triple. The cookie
// makes the two rules one unit in the switch: they share one idle clock,
// leave the table together and send one flow-removed, so a pair is tracked
// by its cookie alone. It is the default backend and preserves the
// pre-interface controller behavior: same rule shapes, same install/delete
// order, same cookie sequence.
type OpenFlow struct {
	p        Params
	pairs    map[pairKey]uint64 // cookie of each installed pair
	seq      uint64
	switches []*openflow.Switch
	high     int
	flowMods uint64

	// Obs handles (nil without Params.Counters; nil handles no-op).
	gEntries *obs.Gauge
	cMods    *obs.Counter
}

// NewOpenFlow creates the rule-install backend. All wiring arrives later
// via Bind.
func NewOpenFlow() *OpenFlow {
	return &OpenFlow{pairs: make(map[pairKey]uint64)}
}

// Name implements Steering.
func (b *OpenFlow) Name() string { return "openflow" }

// Stateless implements Steering: rule installs are per-switch state.
func (b *OpenFlow) Stateless() bool { return false }

// Bind implements Steering.
func (b *OpenFlow) Bind(p Params) {
	b.p = p
	if reg := p.Counters; reg != nil {
		b.gEntries = reg.Gauge("steer_entries")
		b.cMods = reg.Counter("steer_flow_mods_total")
	}
}

// AttachSwitch implements Steering: rule installs need no per-switch setup;
// the switch list only feeds the Stats snapshot.
func (b *OpenFlow) AttachSwitch(sw *openflow.Switch) {
	b.switches = append(b.switches, sw)
}

// countMods accounts n flow-mods sent to a switch.
func (b *OpenFlow) countMods(n uint64) {
	b.flowMods += n
	b.cMods.Add(n)
}

// release deletes the pair installed for key, if any: one DeleteFlows covers
// both rules (shared cookie) and counts one flow-mod.
func (b *OpenFlow) release(key pairKey) {
	cookie, ok := b.pairs[key]
	if !ok {
		return
	}
	key.sw.DeleteFlows(cookie)
	delete(b.pairs, key)
	b.countMods(1)
	b.gEntries.Set(int64(len(b.pairs)))
}

// install replaces the pair of f at sw, if any, by a new cookie and its
// forward rule, which arms the cookie's idle clock and asks for its
// flow-removed notification, so the cookie and client-location bookkeeping
// is garbage-collected on idle expiry.
func (b *OpenFlow) install(sw *openflow.Switch, f Flow, a openflow.Actions) (cookie uint64) {
	key := pairKey{sw, f}
	b.release(key)
	b.seq++
	cookie = controllerCookieBase + b.seq
	sw.AddFlow(openflow.FlowRule{
		Priority:      b.p.FlowPriority,
		Cookie:        cookie,
		Match:         openflow.Match{SrcIP: f.Client, DstIP: f.VIP, DstPort: f.Port},
		Actions:       a,
		IdleTimeout:   b.p.IdleTimeout,
		NotifyRemoved: true,
	})
	b.pairs[key] = cookie
	if len(b.pairs) > b.high {
		b.high = len(b.pairs)
	}
	b.countMods(1)
	b.gEntries.Set(int64(len(b.pairs)))
	return cookie
}

// InstallRedirect implements Steering: the forward and reverse rewrite rules
// for one client/service pair, replacing any previous pair for the key. The
// reverse rule shares the forward rule's clock and notification through the
// cookie.
func (b *OpenFlow) InstallRedirect(sw *openflow.Switch, f Flow, ep Endpoint) {
	cookie := b.install(sw, f, openflow.Actions{SetDstIP: ep.Addr, SetDstPort: ep.Port, Output: openflow.OutputNormal})
	sw.AddFlow(openflow.FlowRule{
		Priority: b.p.FlowPriority,
		Cookie:   cookie,
		Match:    openflow.Match{SrcIP: ep.Addr, SrcPort: ep.Port, DstIP: f.Client},
		Actions:  openflow.Actions{SetSrcIP: f.VIP, SetSrcPort: f.Port, Output: openflow.OutputNormal},
	})
	b.countMods(1)
}

// InstallCloudForward implements Steering: a pass-through flow so the
// conversation continues to the real cloud without further packet-ins.
func (b *OpenFlow) InstallCloudForward(sw *openflow.Switch, f Flow) {
	b.install(sw, f, openflow.Actions{Output: openflow.OutputNormal})
}

// ReAnchor implements Steering: handover. The old attachment point's pair is
// deleted eagerly (it can never match again — the client's packets now enter
// at newSw) and a fresh pair is installed where the client actually is. When
// the old pair already idle-expired, release is a no-op: the cookie is not
// double-released and no phantom flow-mod is counted.
func (b *OpenFlow) ReAnchor(oldSw, newSw *openflow.Switch, f Flow, ep Endpoint) {
	b.release(pairKey{oldSw, f})
	b.InstallRedirect(newSw, f, ep)
}

// FlowRemoved implements Steering: a pair idle-expired on sw, and rule is
// its forward (or cloud-forward) rule, whose match carries the flow. The
// pair is forgotten and the flow reported — unless the notice is stale: the
// key was re-installed under a newer cookie, or released, while it was in
// flight. Then the flow's steering is not what expired, and the controller
// must not forget the client.
func (b *OpenFlow) FlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) (Flow, bool) {
	f := Flow{Client: rule.Match.SrcIP, VIP: rule.Match.DstIP, Port: rule.Match.DstPort}
	key := pairKey{sw, f}
	if b.pairs[key] != rule.Cookie {
		return f, false
	}
	delete(b.pairs, key)
	b.gEntries.Set(int64(len(b.pairs)))
	return f, true
}

// Entries implements Steering.
func (b *OpenFlow) Entries() int { return len(b.pairs) }

// Stats implements Steering. SwitchRules is the summed live table size of
// every attached switch (punt rules included — they are part of the
// table-pressure the backend imposes).
func (b *OpenFlow) Stats() TableStats {
	rules := 0
	for _, sw := range b.switches {
		rules += sw.RuleCount()
	}
	return TableStats{
		Entries:          len(b.pairs),
		EntriesHighWater: b.high,
		FlowMods:         b.flowMods,
		SwitchRules:      rules,
	}
}
