// Package steer abstracts how the controller's dispatch decisions reach the
// data plane. The paper's approach — per-flow forward/reverse rewrite rules
// installed on the edge switch (package openflow) — is one implementation;
// package srsteer provides a stateless SRv6-style alternative where the
// decision is encoded at the ingress point and no per-flow switch state
// exists at all. core.Controller talks only to this interface, so the two
// backends are interchangeable per testbed and comparable per experiment
// (see DESIGN.md §4).
package steer

import (
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// Flow identifies one client→service flow the controller steers: the tuple
// the paper's forward rewrite rule matches on (client source, service VIP
// and port; the client's source port is deliberately wildcarded so one
// decision covers every connection of the client to the service).
type Flow struct {
	Client simnet.Addr
	VIP    simnet.Addr
	Port   int
}

// Endpoint is the instance a flow is steered to.
type Endpoint struct {
	Addr simnet.Addr
	Port int
}

// Params is the controller-side wiring a backend receives once, at
// Controller construction (Bind). Backends created externally (testbed
// options, experiments) therefore never need to know controller config.
type Params struct {
	// Kernel is the virtual clock (binding idle expiry, deferred work).
	Kernel *sim.Kernel
	// FlowPriority is the priority of installed redirect rules (rule-based
	// backends only; must outrank the controller's punt rules).
	FlowPriority int
	// IdleTimeout bounds how long an unused per-flow steering decision
	// (switch rule pair or controller-side binding) survives.
	IdleTimeout time.Duration
	// OnExpired, when set, is invoked (kernel context) when a flow's
	// steering state idle-expires without an openflow flow-removed
	// notification — the stateless backend's GC signal to the controller.
	OnExpired func(f Flow)
	// Counters, when non-nil, is where the backend registers the reader of
	// its counts (steer_entries and its peak, steer_flow_mods_total or the
	// SRv6 encap/decap counts). Nil registers nothing.
	Counters *obs.Registry
}

// TableStats summarizes a backend's data-plane footprint — the quantities
// the scale-steer experiment compares across backends.
type TableStats struct {
	// EntriesHighWater is the peak number of tracked per-flow steering
	// decisions over the run (openflow: installed redirect/cloud-forward
	// pairs; srsteer: controller-side bindings).
	EntriesHighWater int
	// FlowMods counts flow-mod messages the backend sent to switches
	// (add + delete). Zero for the stateless backend — its decisions never
	// touch a switch table.
	FlowMods uint64
}

// Steering is the pluggable dispatch-to-dataplane mechanism. All methods run
// in kernel (event) context and must not block; install/uninstall take
// effect immediately, mirroring the synchronous AddFlow model (the held
// packet's TableOut re-injection pays the controller latency either way).
type Steering interface {
	// Stateless reports whether steering decisions are valid at every
	// attached switch without per-switch installs (srsteer's shared binding
	// table, consulted by each ingress hook). The controller uses this on
	// handover: a stateless backend needs no packet-in at the new switch —
	// re-anchoring is a pure binding refresh and the continuity gap is zero.
	Stateless() bool
	// Bind wires the backend to the controller (called once from core.New).
	Bind(p Params)
	// AttachSwitch is called for every switch the controller manages; the
	// stateless backend uses it to install its ingress hook.
	AttachSwitch(sw *openflow.Switch)
	// InstallRedirect steers f to ep at sw, replacing any previous decision
	// for the same flow at that switch (fig. 2's forward+reverse pair, or
	// an ingress encapsulation binding).
	InstallRedirect(sw *openflow.Switch, f Flow, ep Endpoint)
	// InstallCloudForward makes f bypass further packet-ins and flow toward
	// the cloud unmodified.
	InstallCloudForward(sw *openflow.Switch, f Flow)
	// ReAnchor moves f's steering from the client's previous attachment
	// point to its new one (handover): the old switch's state is released
	// eagerly instead of waiting out its idle timeout.
	ReAnchor(oldSw, newSw *openflow.Switch, f Flow, ep Endpoint)
	// FlowRemoved consumes an openflow flow-removed notification,
	// releasing backend bookkeeping. It returns the flow the rule steered
	// so the controller can GC its own per-client state.
	FlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) (Flow, bool)
	// Entries returns the current number of tracked per-flow steering
	// decisions.
	Entries() int
	// Stats snapshots the backend's data-plane footprint.
	Stats() TableStats
}
