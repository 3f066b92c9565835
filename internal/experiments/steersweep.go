package experiments

import (
	"fmt"
	"strings"

	"transparentedge/internal/obs"
)

// steerBackends are the backends the sweeps compare, in report order.
var steerBackends = []string{"openflow", "srv6"}

// steerSweepClients is the client-count axis of the steering and the
// attribution sweeps: the quantity the per-flow rule backend's table
// occupancy and flow-mod traffic grow with, and the stateless backend's do
// not, and where more concurrent flows make the two backends' dispatch
// latencies diverge.
var steerSweepClients = []int{20, 80, 320}

// parityShards are the shard counts a backend's serial (one-kernel) replay
// fingerprint must reproduce bit-identically.
var parityShards = []int{2, 4, 8}

// steerPoint is one (backend, client count) measurement of the fig. 9-style
// replay. The embedded pointResult summarizes the replay — dispatch latency
// must not regress under the stateless backend — and its harness cost.
type steerPoint struct {
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
	pointResult
}

// parity is one row of a sweep's determinism gates, labelled by its
// backend or shard count. A gate the sweep does not run is nil, and the
// renderers skip it.
type parity struct {
	name, key string // the text label, the JSON key prefix
	serial    any    // digest: the serial replay's fingerprint
	shards    any    // bool: every parityShards rerun reproduced serial
	traced    any    // bool: the traced rerun reproduced serial
	match     any    // bool: the attribution-on replay reproduced attribution-off
	report    any    // digest: the attribution report's fingerprint
}

// parityColumns flatten under <key>_.
var parityColumns = []column[parity]{
	{"serial", "fingerprint", "%016x", func(p parity) any { return p.serial }},
	{"shards", "shard_parity", "%v", func(p parity) any { return p.shards }},
	{"traced", "traced_parity", "%v", func(p parity) any { return p.traced }},
	{"fingerprint_match", "parity", "%v", func(p parity) any { return p.match }},
	{"report", "report_fp", "%016x", func(p parity) any { return p.report }},
}

// parityLines renders the gates, one line per row.
func parityLines(b *strings.Builder, rows []parity) {
	for _, pr := range rows {
		fmt.Fprintf(b, "  parity[%s]: %s\n", pr.name, inline(parityColumns, pr))
	}
}

// parityMetrics flattens the gates into m.
func parityMetrics(m map[string]float64, rows []parity) {
	for _, pr := range rows {
		flatten(m, pr.key+"_", parityColumns, pr)
	}
}

// steerSweepResult is the backend comparison: per-point table pressure and
// latency plus the per-backend determinism gates.
type steerSweepResult struct {
	Requests int
	Points   []steerPoint
	Parity   []parity
}

// steerColumns flatten under <backend>_c<clients>_.
var steerColumns = []column[steerPoint]{
	{"backend", "", "%-9s", func(p steerPoint) any { return p.Backend }},
	{"clients", "", "%8d", func(p steerPoint) any { return p.Clients }},
	{"rule-peak", "rule_peak", "%10d", func(p steerPoint) any { return p.RuleHighWater }},
	{"flow-mods", "flow_mods", "%10d", func(p steerPoint) any { return p.FlowMods }},
	{"entries", "entries_peak", "%10d", func(p steerPoint) any { return p.EntriesHighWater }},
	{"", "errors", "", func(p steerPoint) any { return p.Errors }},
	{"", "unfinished", "", func(p steerPoint) any { return p.Unfinished }},
	{"median", "median_ms", "%10v", func(p steerPoint) any { return p.Median }},
	{"p95", "p95_ms", "%10v", func(p steerPoint) any { return p.P95 }},
	{"", "deployments", "", func(p steerPoint) any { return p.Deployments }},
	{"", "wall_ms", "", func(p steerPoint) any { return p.Wall }},
	{"allocs", "allocs_per_req", "%8.1f", func(p steerPoint) any { return p.AllocsPerRequest }},
}

// String renders the comparison table.
func (r steerSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steering backend sweep (%d requests)\n", r.Requests)
	tableHeader(&b, steerColumns)
	for _, p := range r.Points {
		tableRow(&b, steerColumns, p)
	}
	parityLines(&b, r.Parity)
	return b.String()
}

// JSON returns the uniform result shape: one metric per point per quantity,
// keyed backend_c<clients>_<metric>, plus the parity gates as 0/1.
func (r steerSweepResult) JSON() JSONResult {
	m := map[string]float64{"requests": float64(r.Requests)}
	for _, p := range r.Points {
		flatten(m, fmt.Sprintf("%s_c%d_", p.Backend, p.Clients), steerColumns, p)
	}
	parityMetrics(m, r.Parity)
	return JSONResult{Experiment: "scale-steer", Metrics: m}
}

// steerSweep compares the steering backends (nil or empty = all of
// steerBackends; the edgesim -backend flag names one) on the fig. 9-style
// replay across the client-count axis, then runs each backend through the
// sharded replay gates: the fingerprint must be bit-identical serial vs.
// sharded and traced vs. untraced. The expected shape — asserted by
// TestSteerSweepScaling — is rule-table occupancy and flow-mod count
// O(clients) for openflow and O(1) for srv6, at equal request outcomes.
func steerSweep(seed int64, requests int, backends []string) (steerSweepResult, error) {
	if len(backends) == 0 {
		backends = steerBackends
	}
	var out steerSweepResult
	for _, backend := range backends {
		for _, clients := range steerSweepClients {
			run, err := runPoint(pointSpec{Seed: seed, Requests: requests, Backend: backend, Clients: clients})
			if err != nil {
				return out, err
			}
			st := run.tb.Ctrl.SteerStats()
			out.Requests = run.Requests
			out.Points = append(out.Points, steerPoint{
				Backend:          backend,
				Clients:          clients,
				RuleHighWater:    run.tb.Switch.RuleHighWater,
				FlowMods:         st.FlowMods,
				EntriesHighWater: st.EntriesHighWater,
				pointResult:      run.pointResult,
			})
		}
	}
	for _, backend := range backends {
		base := pointSpec{Seed: seed, Requests: requests, Backend: backend, Shards: 1}
		serial, shardOK, tracedOK, err := parityGate(shardFingerprint, base, parityShards,
			func(s *pointSpec) { s.Trace, s.Counters = obs.NewTracer(0), obs.NewRegistry() })
		if err != nil {
			return out, err
		}
		out.Parity = append(out.Parity, parity{name: backend, key: backend, serial: digest(serial), shards: shardOK, traced: tracedOK})
	}
	return out, nil
}
