package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/metrics"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// MobilityCells is the number of gNB attachment points per site in the
// mobility scenarios: enough to hand over between, small enough that every
// cell keeps several clients.
const MobilityCells = 2

// mobilityDwells is the handover-rate axis: the mean per-client dwell time
// between handovers. Halving the dwell doubles the handover pressure.
var mobilityDwells = []time.Duration{20 * time.Second, 5 * time.Second}

// mobilityParityShards are the shard counts the mobility replay fingerprint
// must reproduce bit-identically (1 is the serial baseline).
var mobilityParityShards = []int{1, 2, 4, 8}

// MobilityPoint is one (backend, dwell) measurement of the mobility replay:
// the Fondo-Ferreiro comparison quantities — continuity gap and per-handover
// signalling — next to the usual replay outcomes.
type MobilityPoint struct {
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
	// Errors / Median / P95 / Deployments summarize the replay.
	Errors      int
	Median      time.Duration
	P95         time.Duration
	Deployments int
	// TrackedClients / PendingHandovers are the post-run controller-state
	// bounds: both must stay bounded by the client population even under
	// srsteer, where no FlowRemoved notification ever fires.
	TrackedClients   int
	PendingHandovers int
	Wall             time.Duration
}

// MobilityParity is one backend's sharded-replay determinism gate under
// mobility: the fingerprint at every mobilityParityShards count must equal
// the serial one.
type MobilityParity struct {
	Backend    string
	Serial     uint64
	ShardMatch bool
}

// MobilitySweepResult is the handover comparison across backends and
// handover rates.
type MobilitySweepResult struct {
	Requests int
	Cells    int
	Points   []MobilityPoint
	Parity   []MobilityParity
	// DecisionParity reports whether both backends made identical scheduler
	// decisions (deployments, errors, served requests) at every dwell —
	// the backends must differ in continuity gap and signalling only.
	DecisionParity bool
}

// String renders the comparison table.
func (r MobilitySweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mobility sweep (%d requests, %d cells)\n", r.Requests, r.Cells)
	fmt.Fprintf(&b, "  %-9s %8s %10s %10s %10s %10s %10s %10s\n",
		"backend", "dwell", "handovers", "gap-p50", "gap-p99", "flow-mods", "mods/ho", "median")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-9s %8v %10d %10v %10v %10d %10.2f %10v\n",
			p.Backend, p.MeanDwell, p.Handovers,
			p.GapP50.Round(time.Microsecond), p.GapP99.Round(time.Microsecond),
			p.FlowMods, p.FlowModsPerHandover, p.Median.Round(time.Microsecond))
	}
	for _, pr := range r.Parity {
		fmt.Fprintf(&b, "  parity[%s]: serial=%016x shards=%v\n", pr.Backend, pr.Serial, pr.ShardMatch)
	}
	fmt.Fprintf(&b, "  decision parity: %v\n", r.DecisionParity)
	return b.String()
}

// JSON returns the uniform result shape, keyed backend_d<dwellSeconds>_<metric>.
func (r MobilitySweepResult) JSON() JSONResult {
	m := map[string]float64{
		"requests": float64(r.Requests),
		"cells":    float64(r.Cells),
	}
	for _, p := range r.Points {
		k := fmt.Sprintf("%s_d%d_", p.Backend, int(p.MeanDwell/time.Second))
		m[k+"handovers"] = float64(p.Handovers)
		m[k+"gap_samples"] = float64(p.GapSamples)
		m[k+"gap_p50_ms"] = ms(p.GapP50)
		m[k+"gap_p99_ms"] = ms(p.GapP99)
		m[k+"flow_mods"] = float64(p.FlowMods)
		m[k+"flow_mods_per_handover"] = p.FlowModsPerHandover
		m[k+"reanchors"] = float64(p.ReAnchors)
		m[k+"errors"] = float64(p.Errors)
		m[k+"median_ms"] = ms(p.Median)
		m[k+"p95_ms"] = ms(p.P95)
		m[k+"deployments"] = float64(p.Deployments)
		m[k+"tracked_clients"] = float64(p.TrackedClients)
		m[k+"pending_handovers"] = float64(p.PendingHandovers)
		m[k+"wall_ms"] = ms(p.Wall)
	}
	for _, pr := range r.Parity {
		v := 0.0
		if pr.ShardMatch {
			v = 1
		}
		m[pr.Backend+"_shard_parity"] = v
		m[pr.Backend+"_fingerprint"] = float64(pr.Serial >> 12) // 52-bit digest
	}
	v := 0.0
	if r.DecisionParity {
		v = 1
	}
	m["decision_parity"] = v
	return JSONResult{Experiment: "scale-mobility", Metrics: m}
}

// mobilitySchedule derives the handover schedule for a trace: same window,
// same client population, dwell as given. The schedule seed is offset so it
// never correlates with the trace's own draws.
func mobilitySchedule(trace *workload.Trace, dwell time.Duration) []workload.Handover {
	return workload.GenerateHandovers(workload.MobilityConfig{
		Seed:      trace.Config.Seed + 7,
		Clients:   trace.Config.Clients,
		Cells:     MobilityCells,
		Duration:  trace.Config.Duration,
		MeanDwell: dwell,
		MinDwell:  time.Second,
	})
}

// runMobilityPoint replays the scale trace with mobility on the single
// gNB-topology testbed under one backend and samples the handover
// quantities.
func runMobilityPoint(seed int64, requests int, dwell time.Duration, backend string) MobilityPoint {
	trace := workload.Generate(replayScaleConfig(seed, requests))
	tb := testbed.New(testbed.Options{
		Seed: seed, EnableDocker: true,
		SteerBackend: backend,
		GNBs:         MobilityCells,
	})
	hos := mobilitySchedule(trace, dwell)

	start := time.Now()
	res, err := workload.ReplayWith(tb, trace, catalog.Nginx, workload.Options{
		PrePull: true, PreCreate: true,
		Handovers: hos,
	})
	wall := time.Since(start)
	if err != nil {
		panic(err)
	}

	st := tb.Ctrl.SteerStats()
	gaps := tb.Ctrl.ContinuityGaps()
	p := MobilityPoint{
		Backend:          backend,
		MeanDwell:        dwell,
		Handovers:        tb.Ctrl.Stats.Handovers,
		GapSamples:       gaps.Len(),
		GapP50:           gaps.Median(),
		GapP99:           gaps.Percentile(99),
		FlowMods:         st.FlowMods,
		ReAnchors:        tb.Ctrl.Stats.HandoverReAnchors,
		Errors:           res.Errors,
		Median:           res.Totals.Median(),
		P95:              res.Totals.Percentile(95),
		Deployments:      res.FirstRequests.Len(),
		TrackedClients:   tb.Ctrl.TrackedClients(),
		PendingHandovers: tb.Ctrl.PendingHandovers(),
		Wall:             wall,
	}
	if p.Handovers > 0 {
		p.FlowModsPerHandover = float64(p.FlowMods) / float64(p.Handovers)
	}
	return p
}

// MobilityShardRun replays the sharded multi-region scenario with
// per-region gNB cells and intra-region handovers, returning the merged
// outcome fingerprint (which must be bit-identical at every shard count)
// together with the merged continuity-gap histogram.
type MobilityShardRun struct {
	Result    *workload.ShardReplayResult
	Gaps      *metrics.Hist
	Handovers uint64
	FlowMods  uint64
}

// Fingerprint digests every deterministic output of the sharded mobility
// run: the replay outcomes plus the per-region handover counts and the
// merged continuity-gap histogram.
func (m MobilityShardRun) Fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(m.Result.Errors))
	mix(uint64(m.Result.Deployments))
	mix(uint64(m.Result.Totals.Median()))
	mix(uint64(m.Result.Totals.Percentile(95)))
	for _, rres := range m.Result.PerRegion {
		mix(uint64(rres.Totals.Len()))
	}
	mix(m.Result.Totals.Fingerprint())
	mix(m.Handovers)
	mix(m.FlowMods)
	mix(m.Gaps.Fingerprint())
	return h
}

// RunMobilityShard executes one sharded mobility replay. The trace and the
// handover schedule depend only on (seed, requests, dwell) — never on the
// shard count — and every handover is intra-region, so the run partitions
// cleanly onto any number of kernels.
func RunMobilityShard(seed int64, requests, shards int, dwell time.Duration, backend string) MobilityShardRun {
	trace := workload.Generate(replayShardConfig(seed, requests))
	hos := mobilitySchedule(trace, dwell)
	rs := testbed.NewRegions(testbed.RegionOptions{
		Seed:         seed,
		Shards:       shards,
		SteerBackend: backend,
		GNBs:         MobilityCells,
	})
	res, err := workload.ReplaySharded(rs, trace, catalog.Nginx, workload.Options{
		PrePull: true, PreCreate: true,
		Handovers: hos,
	})
	if err != nil {
		panic(err)
	}
	run := MobilityShardRun{Result: res, Gaps: metrics.NewHist("continuity_gap")}
	for _, site := range rs.Sites {
		run.Handovers += site.Ctrl.Stats.Handovers
		run.FlowMods += site.Ctrl.SteerStats().FlowMods
		if err := run.Gaps.Merge(site.Ctrl.ContinuityGaps()); err != nil {
			panic(err)
		}
	}
	return run
}

// MobilitySweep compares the steering backends under client mobility: the
// Fondo-Ferreiro continuity-gap recipe (EXPERIMENTS.md) across handover
// rates, plus the sharded fingerprint-parity gates. The expected shape —
// asserted by TestMobilitySweep — is a zero continuity gap and zero
// flow-mod churn for srv6, a punt-round-trip gap and ~O(flows) mods per
// handover for openflow, at identical scheduler decisions.
func MobilitySweep(seed int64, requests int, options ...Option) MobilitySweepResult {
	return MobilitySweepBackends(seed, requests, nil, options...)
}

// MobilitySweepBackends is MobilitySweep restricted to the named backends
// (the edgesim -backend flag); nil or empty compares all of SteerBackends.
func MobilitySweepBackends(seed int64, requests int, backends []string, options ...Option) MobilitySweepResult {
	_ = applyOpts(options) // reserved: the sweep owns its obs handles
	if len(backends) == 0 {
		backends = SteerBackends
	}
	if requests < 8*2 {
		requests = 8 * 2
	}
	out := MobilitySweepResult{Requests: requests, Cells: MobilityCells, DecisionParity: true}
	byDwell := make(map[time.Duration][]MobilityPoint)
	for _, backend := range backends {
		for _, dwell := range mobilityDwells {
			p := runMobilityPoint(seed, requests, dwell, backend)
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
	dwell := mobilityDwells[len(mobilityDwells)-1]
	for _, backend := range backends {
		pr := MobilityParity{Backend: backend, ShardMatch: true}
		for i, shards := range mobilityParityShards {
			run := RunMobilityShard(seed, requests, shards, dwell, backend)
			fp := run.Fingerprint()
			if i == 0 {
				pr.Serial = fp
			} else if fp != pr.Serial {
				pr.ShardMatch = false
			}
		}
		out.Parity = append(out.Parity, pr)
	}
	return out
}
