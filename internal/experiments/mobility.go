package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/metrics"
)

// mobilityCells is the number of gNB attachment points per site in the
// mobility scenarios: enough to hand over between, small enough that every
// cell keeps several clients.
const mobilityCells = 2

// mobilityDwells is the handover-rate axis: the mean per-client dwell time
// between handovers. Halving the dwell doubles the handover pressure.
var mobilityDwells = []time.Duration{20 * time.Second, 5 * time.Second}

// mobilityPoint is one (backend, dwell) measurement of the mobility replay:
// the Fondo-Ferreiro comparison quantities — continuity gap and per-handover
// signalling — next to the usual replay outcomes (the embedded pointResult).
type mobilityPoint struct {
	Backend   string
	MeanDwell time.Duration
	// Handovers counts executed handover events; GapSamples the resolved
	// continuity gaps (only clients with live flows contribute a sample).
	Handovers  uint64
	GapSamples int
	// GapP50 / GapP99 summarize the continuity-gap histogram: zero for the
	// stateless backend (re-anchoring is immediate), the client's re-punt
	// round trip for the rule-based one.
	GapP50 time.Duration
	GapP99 time.Duration
	// FlowMods is the backend's total flow-mod traffic; FlowModsPerHandover
	// the mobility-induced churn rate. Both zero for srv6.
	FlowMods            uint64
	FlowModsPerHandover float64
	// ReAnchors counts eager (handover-time) flow re-anchors — stateless
	// backends only.
	ReAnchors uint64
	// TrackedClients / PendingHandovers are the post-run controller-state
	// bounds: both must stay bounded by the client population even under
	// srsteer, where no FlowRemoved notification ever fires.
	TrackedClients   int
	PendingHandovers int
	pointResult
}

// mobilitySweepResult is the handover comparison across backends and
// handover rates.
type mobilitySweepResult struct {
	Requests int
	Cells    int
	Points   []mobilityPoint
	// Parity is each backend's sharded-replay determinism gate under
	// mobility: the fingerprint at every parityShards count must equal the
	// serial one.
	Parity []parity
	// DecisionParity reports whether both backends made identical scheduler
	// decisions (deployments, errors, served requests) at every dwell —
	// the backends must differ in continuity gap and signalling only.
	DecisionParity bool
}

// mobilityColumns flatten under <backend>_d<dwellSeconds>_.
var mobilityColumns = []column[mobilityPoint]{
	{"backend", "", "%-9s", func(p mobilityPoint) any { return p.Backend }},
	{"dwell", "", "%8v", func(p mobilityPoint) any { return p.MeanDwell }},
	{"handovers", "handovers", "%10d", func(p mobilityPoint) any { return p.Handovers }},
	{"", "gap_samples", "", func(p mobilityPoint) any { return p.GapSamples }},
	{"gap-p50", "gap_p50_ms", "%10v", func(p mobilityPoint) any { return p.GapP50 }},
	{"gap-p99", "gap_p99_ms", "%10v", func(p mobilityPoint) any { return p.GapP99 }},
	{"flow-mods", "flow_mods", "%10d", func(p mobilityPoint) any { return p.FlowMods }},
	{"mods/ho", "flow_mods_per_handover", "%10.2f", func(p mobilityPoint) any { return p.FlowModsPerHandover }},
	{"", "reanchors", "", func(p mobilityPoint) any { return p.ReAnchors }},
	{"", "errors", "", func(p mobilityPoint) any { return p.Errors }},
	{"", "unfinished", "", func(p mobilityPoint) any { return p.Unfinished }},
	{"median", "median_ms", "%10v", func(p mobilityPoint) any { return p.Median }},
	{"", "p95_ms", "", func(p mobilityPoint) any { return p.P95 }},
	{"", "deployments", "", func(p mobilityPoint) any { return p.Deployments }},
	{"", "tracked_clients", "", func(p mobilityPoint) any { return p.TrackedClients }},
	{"", "pending_handovers", "", func(p mobilityPoint) any { return p.PendingHandovers }},
	{"", "wall_ms", "", func(p mobilityPoint) any { return p.Wall }},
}

// String renders the comparison table.
func (r mobilitySweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mobility sweep (%d requests, %d cells)\n", r.Requests, r.Cells)
	tableHeader(&b, mobilityColumns)
	for _, p := range r.Points {
		tableRow(&b, mobilityColumns, p)
	}
	parityLines(&b, r.Parity)
	fmt.Fprintf(&b, "  decision parity: %v\n", r.DecisionParity)
	return b.String()
}

// JSON returns the uniform result shape, keyed backend_d<dwellSeconds>_<metric>.
func (r mobilitySweepResult) JSON() JSONResult {
	m := map[string]float64{
		"requests":        float64(r.Requests),
		"cells":           float64(r.Cells),
		"decision_parity": number(r.DecisionParity),
	}
	for _, p := range r.Points {
		flatten(m, fmt.Sprintf("%s_d%d_", p.Backend, int(p.MeanDwell/time.Second)), mobilityColumns, p)
	}
	parityMetrics(m, r.Parity)
	return JSONResult{Experiment: "scale-mobility", Metrics: m}
}

// mobilityRun is one mobility replay — sharded multi-region with
// intra-region handovers, or the single gNB-topology site — with the
// handover quantities summed over its sites and their continuity-gap
// histograms merged in region order.
type mobilityRun struct {
	pointResult
	Gaps      *metrics.Hist
	Handovers uint64
	FlowMods  uint64
}

// Fingerprint digests every deterministic output of the mobility run: the
// replay outcomes plus the handover counts and the merged continuity-gap
// histogram. It must be bit-identical at every shard count.
func (m mobilityRun) Fingerprint() uint64 {
	h := newFNV()
	h.u64(uint64(m.Errors))
	h.u64(uint64(m.Deployments))
	h.u64(uint64(m.Median))
	h.u64(uint64(m.P95))
	for _, n := range m.PerRegionRequests {
		h.u64(uint64(n))
	}
	h.u64(m.Totals.Fingerprint())
	h.u64(m.Handovers)
	h.u64(m.FlowMods)
	h.u64(m.Gaps.Fingerprint())
	return uint64(h)
}

// runMobility replays s over mobilityCells gNB cells per site and samples
// the handover quantities. The trace and the handover schedule depend only
// on (seed, requests, dwell) — never on the shard count — and every handover
// is intra-region, so the run partitions cleanly onto any number of kernels.
func runMobility(s pointSpec) (mobilityRun, pointRun, error) {
	s.GNBs = mobilityCells
	run, err := runPoint(s)
	if err != nil {
		return mobilityRun{}, run, err
	}
	out := mobilityRun{pointResult: run.pointResult, Gaps: metrics.NewHist("continuity_gap")}
	for _, site := range run.sites() {
		out.Handovers += site.Ctrl.Stats.Handovers
		out.FlowMods += site.Ctrl.SteerStats().FlowMods
		if err := out.Gaps.Merge(site.Ctrl.ContinuityGaps()); err != nil {
			return out, run, err
		}
	}
	return out, run, nil
}

// mobilitySweep compares the steering backends (nil or empty = all of
// steerBackends) under client mobility: the Fondo-Ferreiro continuity-gap
// recipe (EXPERIMENTS.md) across handover rates, plus the sharded
// fingerprint-parity gates. The expected shape — asserted by
// TestMobilitySweepShape — is a zero continuity gap and zero flow-mod churn
// for srv6, a punt-round-trip gap and ~O(flows) mods per handover for
// openflow, at identical scheduler decisions.
func mobilitySweep(seed int64, requests int, backends []string) (mobilitySweepResult, error) {
	if len(backends) == 0 {
		backends = steerBackends
	}
	out := mobilitySweepResult{Cells: mobilityCells, DecisionParity: true}
	byDwell := make(map[time.Duration][]mobilityPoint)
	for _, backend := range backends {
		for _, dwell := range mobilityDwells {
			m, run, err := runMobility(pointSpec{Seed: seed, Requests: requests, Backend: backend, Dwell: dwell})
			if err != nil {
				return out, err
			}
			ctrl := run.tb.Ctrl
			p := mobilityPoint{
				Backend:          backend,
				MeanDwell:        dwell,
				Handovers:        m.Handovers,
				GapSamples:       m.Gaps.Len(),
				GapP50:           m.Gaps.Median(),
				GapP99:           m.Gaps.Percentile(99),
				FlowMods:         m.FlowMods,
				ReAnchors:        ctrl.Stats.HandoverReAnchors,
				TrackedClients:   ctrl.TrackedClients(),
				PendingHandovers: ctrl.PendingHandovers(),
				pointResult:      m.pointResult,
			}
			if p.Handovers > 0 {
				p.FlowModsPerHandover = float64(p.FlowMods) / float64(p.Handovers)
			}
			out.Requests = p.Requests
			out.Points = append(out.Points, p)
			byDwell[dwell] = append(byDwell[dwell], p)
		}
	}
	for _, ps := range byDwell {
		for _, p := range ps[1:] {
			if p.Deployments != ps[0].Deployments || p.Errors != ps[0].Errors {
				out.DecisionParity = false
			}
		}
	}
	// Sharded determinism gate, at the faster handover rate (more topology
	// churn, stricter check).
	fingerprint := func(s pointSpec) (uint64, error) {
		m, _, err := runMobility(s)
		if err != nil {
			return 0, err
		}
		return m.Fingerprint(), nil
	}
	for _, backend := range backends {
		base := pointSpec{Seed: seed, Requests: requests, Backend: backend, Shards: 1, Dwell: mobilityDwells[len(mobilityDwells)-1]}
		serial, shardOK, _, err := parityGate(fingerprint, base, parityShards, nil)
		if err != nil {
			return out, err
		}
		out.Parity = append(out.Parity, parity{name: backend, key: backend, serial: digest(serial), shards: shardOK})
	}
	return out, nil
}
