package core

import (
	"time"

	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/steer"
)

// pendingHandover records a client handover (NoteHandover) a rule-based
// backend has not yet resolved: the steering state is still anchored at
// `from` until the client's next packet-in triggers a ReAnchor (or a
// dispatch in flight installs at the new location). The gap between the
// handover instant and that resolution is the continuity gap. A record with
// a nil from is no handover.
type pendingHandover struct {
	at     sim.Time
	from   *openflow.Switch
	client simnet.Addr
}

// pendingOf returns the pending handover of the client numbered client.
func (c *Controller) pendingOf(client uint32) pendingHandover {
	if int(client) < len(c.pendingHO) {
		return c.pendingHO[client]
	}
	return pendingHandover{}
}

// takePending returns the client's pending handover and forgets it.
func (c *Controller) takePending(client uint32) pendingHandover {
	ph := c.pendingOf(client)
	if ph.from != nil {
		c.pendingHO[client] = pendingHandover{}
		c.pending--
	}
	return ph
}

// AddTransitSwitch attaches the controller to a switch that only carries
// traffic between access switches and the uplinks (the gNB topology's
// aggregation switch). The steering backend hooks it (srsteer's ingress
// decap runs wherever reverse traffic enters), but no packet-in punt rules
// are installed — a cloud-forwarded packet whose destination is still the
// VIP must transit toward the cloud, not bounce back to the controller. Like
// AddSwitch, it takes only a switch in the controller's network.
func (c *Controller) AddTransitSwitch(sw *openflow.Switch) {
	c.sameNetwork(sw)
	c.transit = append(c.transit, sw)
	sw.SetController(c)
	c.steerB.AttachSwitch(sw)
}

// NoteHandover tells the controller a client moved to a new attachment
// point — the simulation's stand-in for the 5G control plane's path-switch
// notification (§IV-B: the dispatcher "tracks the clients' current
// location"). The location record is updated immediately, so deployments
// already in flight for the client install their rules and release their
// held packet at the *new* switch.
//
// What happens to the client's existing steering state depends on the
// backend. A stateless backend's bindings are valid at every switch, so the
// handover is resolved on the spot: each memorized flow is re-anchored (a
// pure binding refresh — zero flow-mods) and the continuity gap recorded is
// zero. A rule-based backend must wait for the client's next packet-in at
// the new switch to re-anchor (reactive SDN), so the handover is recorded
// as pending and the continuity gap runs until that resolution.
func (c *Controller) NoteHandover(client simnet.Addr, sw *openflow.Switch) {
	now := c.k.Now()
	id := c.net.Number(client)
	prev := c.location(id)
	c.locate(id, sw)
	c.Stats.Handovers++
	if prev == nil || prev == sw {
		// Nothing is anchored anywhere else; only the location changed.
		c.emit(obs.Event{Kind: obs.EvHandover, Client: string(client), Addr: sw.Name()})
		return
	}
	entries := c.Memory.ClientEntries(client)
	if c.steerB.Stateless() {
		// Royer et al.'s headline: with ingress encoding the handover is a
		// binding refresh. Every switch already consults the shared table,
		// so the session continues without interruption — gap zero, now.
		var vias []string
		if c.tr != nil && len(entries) > 0 {
			vias = make([]string, 0, len(entries))
		}
		for _, e := range entries {
			c.steerB.ReAnchor(prev, sw, steer.Flow(e.Key),
				steer.Endpoint{Addr: e.Instance.Addr, Port: e.Instance.Port})
			if vias != nil {
				vias = append(vias, e.Instance.Service+"@"+string(e.Instance.Addr)+
					" "+prev.Name()+"->"+sw.Name())
			}
		}
		c.Stats.HandoverReAnchors += uint64(len(entries))
		if len(entries) > 0 {
			c.recordGap(client, now, now, vias)
		}
		c.emit(obs.Event{Kind: obs.EvHandover, Client: string(client), Addr: sw.Name(), N: len(entries)})
		return
	}
	if len(entries) > 0 {
		// Rules live at the old switch until the next packet-in re-anchors
		// them. A repeated handover before any packet keeps the original
		// anchor (that is where the rules still are) and restarts the gap
		// clock — an idle client suffers no continuity gap.
		ph := pendingHandover{at: now, from: prev, client: client}
		if old := c.pendingOf(id); old.from != nil {
			ph.from = old.from
		} else {
			c.pending++
		}
		for int(id) >= len(c.pendingHO) {
			c.pendingHO = append(c.pendingHO, pendingHandover{})
		}
		c.pendingHO[id] = ph
	}
	c.emit(obs.Event{Kind: obs.EvHandover, Client: string(client), Addr: sw.Name()})
}

// currentSwitch returns the switch a client is attached to right now,
// falling back to the packet-in's switch when the client has no location
// record. Deployment paths call it at install time — not packet-in time —
// so a client that handed over while its deployment ran gets its rules and
// its held packet at the switch it actually sits behind.
func (c *Controller) currentSwitch(client uint32, fallback *openflow.Switch) *openflow.Switch {
	if sw := c.location(client); sw != nil {
		return sw
	}
	return fallback
}

// resolveHandover closes a pending handover after a steering action for the
// client at its new attachment point: the continuity gap is the time the
// client's sessions spent anchored at a switch it had already left. action
// names the steering mechanism that resolved it ("reanchor",
// "flow_install", "cloud_forward") and sw is the new anchor; together they
// become the re-anchor child span's detail. The detail string is only built
// once a pending handover exists and tracing is on, keeping the untraced
// hot path allocation-free.
func (c *Controller) resolveHandover(client uint32, action string, sw *openflow.Switch) {
	ph := c.takePending(client)
	if ph.from == nil {
		return
	}
	var vias []string
	if c.tr != nil {
		via := action
		if sw != nil {
			via = action + " " + ph.from.Name() + "->" + sw.Name()
		}
		vias = []string{via}
	}
	c.recordGap(ph.client, ph.at, c.k.Now(), vias)
}

// recordGap records one continuity-gap sample and its handover span tree:
// one "reanchor" child per steering action that moved the client's state to
// the new switch (instantaneous, at the resolution time), nested under the
// "handover" root spanning the continuity gap. Children are emitted before
// the root, matching the deploy path's order (a tree is complete once its
// root appears).
func (c *Controller) recordGap(client simnet.Addr, start, end sim.Time, vias []string) {
	c.gaps.Add(time.Duration(start), time.Duration(end-start))
	tr := c.tr
	if tr == nil {
		return
	}
	id := tr.NextID()
	for _, via := range vias {
		tr.Emit(obs.Span{Parent: id, Root: id, Name: "reanchor", Cat: "handover",
			Detail: via, Start: time.Duration(end), End: time.Duration(end)})
	}
	tr.Emit(obs.Span{ID: id, Root: id, Name: "handover", Cat: "handover",
		Detail: string(client), Start: time.Duration(start), End: time.Duration(end)})
}

// dropHandoverState forgets a client's pending-handover record alongside
// its location record, keeping both counts bounded by the active client set.
func (c *Controller) dropHandoverState(client uint32) {
	if c.location(client) != nil {
		c.clientLoc[client] = nil
		c.located--
	}
	c.takePending(client)
}

// ContinuityGaps returns the per-handover continuity-gap histogram: one
// sample per resolved handover of a client with live flows (zero for
// stateless backends — resolution is immediate). The Fondo-Ferreiro metric
// the mobility experiments report.
func (c *Controller) ContinuityGaps() *metrics.Hist { return c.gaps }

// PendingHandovers returns how many clients currently await re-anchoring
// (diagnostics; bounded like clientLoc).
func (c *Controller) PendingHandovers() int { return c.pending }
