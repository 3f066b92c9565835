package experiments

import (
	"fmt"
	"strings"

	"transparentedge/internal/obs"
)

// SteerBackends are the backends the sweeps compare, in report order.
var SteerBackends = []string{"openflow", "srv6"}

// steerSweepClients is the client-count axis: the quantity the per-flow
// rule backend's table occupancy and flow-mod traffic grow with, and the
// stateless backend's do not.
var steerSweepClients = []int{20, 80, 320}

// parityShards are the shard counts a backend's serial (one-kernel) replay
// fingerprint must reproduce bit-identically.
var parityShards = []int{2, 4, 8}

// SteerPoint is one (backend, client count) measurement of the fig. 9-style
// replay. The embedded PointResult summarizes the replay — dispatch latency
// must not regress under the stateless backend — and its harness cost.
type SteerPoint struct {
	Backend string
	Clients int
	// RuleHighWater is the switch flow table's peak size (punt rules
	// included): O(clients) for openflow, constant for srv6.
	RuleHighWater int
	// FlowMods counts the flow-mod messages the steering backend sent
	// (installs + deletes; punt rules excluded). Zero for srv6.
	FlowMods uint64
	// EntriesHighWater is the peak count of per-flow steering decisions the
	// backend tracked (cookie pairs / bindings) — both backends hold this
	// controller-side state; only openflow mirrors it into the switch.
	EntriesHighWater int
	PointResult
}

// BackendParity reports one backend's determinism gates: the serial replay
// fingerprint against its sharded and (scale-steer only) traced reruns.
type BackendParity struct {
	Backend     string
	Serial      uint64
	ShardMatch  bool // serial == every parityShards rerun
	TracedMatch bool // untraced == traced rerun
}

// SteerSweepResult is the backend comparison: per-point table pressure and
// latency plus the per-backend determinism gates.
type SteerSweepResult struct {
	Requests int
	Points   []SteerPoint
	Parity   []BackendParity
}

// steerColumns flatten under <backend>_c<clients>_.
var steerColumns = []column[SteerPoint]{
	{"backend", "", "%-9s", func(p SteerPoint) any { return p.Backend }},
	{"clients", "", "%8d", func(p SteerPoint) any { return p.Clients }},
	{"rule-peak", "rule_peak", "%10d", func(p SteerPoint) any { return p.RuleHighWater }},
	{"flow-mods", "flow_mods", "%10d", func(p SteerPoint) any { return p.FlowMods }},
	{"entries", "entries_peak", "%10d", func(p SteerPoint) any { return p.EntriesHighWater }},
	{"", "errors", "", func(p SteerPoint) any { return p.Errors }},
	{"median", "median_ms", "%10v", func(p SteerPoint) any { return p.Median }},
	{"p95", "p95_ms", "%10v", func(p SteerPoint) any { return p.P95 }},
	{"", "deployments", "", func(p SteerPoint) any { return p.Deployments }},
	{"", "wall_ms", "", func(p SteerPoint) any { return p.Wall }},
	{"allocs", "allocs_per_req", "%8.1f", func(p SteerPoint) any { return p.AllocsPerRequest }},
}

// parityColumns flatten under <backend>_; scale-mobility, which has no
// traced rerun, uses the first two.
var parityColumns = []column[BackendParity]{
	{"serial", "fingerprint", "%016x", func(p BackendParity) any { return digest(p.Serial) }},
	{"shards", "shard_parity", "%v", func(p BackendParity) any { return p.ShardMatch }},
	{"traced", "traced_parity", "%v", func(p BackendParity) any { return p.TracedMatch }},
}

// String renders the comparison table.
func (r SteerSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steering backend sweep (%d requests)\n", r.Requests)
	tableHeader(&b, steerColumns)
	for _, p := range r.Points {
		tableRow(&b, steerColumns, p)
	}
	for _, pr := range r.Parity {
		fmt.Fprintf(&b, "  parity[%s]: %s\n", pr.Backend, inline(parityColumns, pr))
	}
	return b.String()
}

// JSON returns the uniform result shape: one metric per point per quantity,
// keyed backend_c<clients>_<metric>, plus the parity gates as 0/1.
func (r SteerSweepResult) JSON() JSONResult {
	m := map[string]float64{"requests": float64(r.Requests)}
	for _, p := range r.Points {
		flatten(m, fmt.Sprintf("%s_c%d_", p.Backend, p.Clients), steerColumns, p)
	}
	for _, pr := range r.Parity {
		flatten(m, pr.Backend+"_", parityColumns, pr)
	}
	return JSONResult{Experiment: "scale-steer", Metrics: m}
}

// SteerSweep compares the steering backends (nil or empty = all of
// SteerBackends; the edgesim -backend flag names one) on the fig. 9-style
// replay across the client-count axis, then runs each backend through the
// sharded replay gates: the fingerprint must be bit-identical serial vs.
// sharded and traced vs. untraced. The expected shape — asserted by
// TestSteerSweepScaling — is rule-table occupancy and flow-mod count
// O(clients) for openflow and O(1) for srv6, at equal request outcomes.
func SteerSweep(seed int64, requests int, backends []string) (SteerSweepResult, error) {
	if len(backends) == 0 {
		backends = SteerBackends
	}
	var out SteerSweepResult
	for _, backend := range backends {
		for _, clients := range steerSweepClients {
			s := runOpts{steer: backend}.point(seed, requests)
			s.Clients = clients
			run, err := runPoint(s)
			if err != nil {
				return out, err
			}
			st := run.tb.Ctrl.SteerStats()
			out.Requests = run.Requests
			out.Points = append(out.Points, SteerPoint{
				Backend:          backend,
				Clients:          clients,
				RuleHighWater:    run.tb.Switch.RuleHighWater,
				FlowMods:         st.FlowMods,
				EntriesHighWater: st.EntriesHighWater,
				PointResult:      run.PointResult,
			})
		}
	}
	for _, backend := range backends {
		p := BackendParity{Backend: backend}
		base := runOpts{steer: backend}.point(seed, requests)
		base.Shards = 1
		var err error
		p.Serial, p.ShardMatch, p.TracedMatch, err = parityGate(shardFingerprint, base, parityShards,
			func(s *pointSpec) { s.Trace, s.Counters = obs.NewTracer(0), obs.NewRegistry() })
		if err != nil {
			return out, err
		}
		out.Parity = append(out.Parity, p)
	}
	return out, nil
}
