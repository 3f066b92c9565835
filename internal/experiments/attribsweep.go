package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/obs/attrib"
)

// attribSweepClients is the client-count axis, shared with the steering
// sweep: more clients mean more concurrent flows, which is where the
// rule-based and stateless backends' dispatch latencies diverge.
var attribSweepClients = []int{20, 80, 320}

// attribParityShards are the shard counts at which the attribution-on
// replay's result fingerprint must be byte-identical to the
// attribution-off replay's — and the attribution report itself identical
// across shard counts.
var attribParityShards = []int{1, 2, 4, 8}

// AttribPhase is one phase's latency summary at one sweep point.
type AttribPhase struct {
	Phase attrib.Phase
	// Total is the exclusive virtual time attributed to the phase across
	// the whole replay; P50/P99 summarize its per-span distribution.
	Total    time.Duration
	P50, P99 time.Duration
	Count    int
}

// AttribPoint is one (backend, client count) attribution measurement.
type AttribPoint struct {
	Backend string
	Clients int
	// Trees / Spans count finalized span trees and observed spans.
	Trees, Spans uint64
	// DispatchP50/P99 summarize the dispatch root-span durations — the
	// quantity the phase breakdown decomposes.
	DispatchP50, DispatchP99 time.Duration
	// Phases holds the nonzero phases, in Phase order.
	Phases []AttribPhase
}

// AttribParity is one shard count's determinism gate.
type AttribParity struct {
	Shards int
	// Match is true when the attribution-on replay fingerprinted
	// byte-identical to the attribution-off replay at this shard count.
	Match bool
	// ReportFingerprint digests the attribution report itself; it must be
	// identical at every shard count (the report is virtual-time only).
	ReportFingerprint uint64
}

// AttribSweepResult compares per-phase dispatch latency between steering
// backends across the client axis, plus the attribution determinism gates.
type AttribSweepResult struct {
	Requests int
	Points   []AttribPoint
	Parity   []AttribParity
}

// String renders the comparison and the gates.
func (r AttribSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency attribution sweep (%d requests)\n", r.Requests)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %s clients=%d: dispatch p50/p99 %v / %v (%d trees)\n",
			p.Backend, p.Clients,
			p.DispatchP50.Round(time.Microsecond), p.DispatchP99.Round(time.Microsecond), p.Trees)
		for _, ph := range p.Phases {
			fmt.Fprintf(&b, "    %-13s total %12v  p50 %10v  p99 %10v  n=%d\n",
				ph.Phase, ph.Total.Round(time.Microsecond),
				ph.P50.Round(time.Microsecond), ph.P99.Round(time.Microsecond), ph.Count)
		}
	}
	for _, pr := range r.Parity {
		fmt.Fprintf(&b, "  parity[shards=%d]: %s\n", pr.Shards, inline(attribParityColumns, pr))
	}
	return b.String()
}

// attribParityColumns flatten under shard<N>_.
var attribParityColumns = []column[AttribParity]{
	{"fingerprint_match", "parity", "%v", func(p AttribParity) any { return p.Match }},
	{"report", "report_fp", "%016x", func(p AttribParity) any { return digest(p.ReportFingerprint) }},
}

// JSON returns the uniform result shape: per point and phase,
// backend_c<clients>_<phase>_<metric>; per gate, shard<N>_parity.
func (r AttribSweepResult) JSON() JSONResult {
	m := map[string]float64{"requests": float64(r.Requests)}
	for _, p := range r.Points {
		k := fmt.Sprintf("%s_c%d_", p.Backend, p.Clients)
		m[k+"trees"] = float64(p.Trees)
		m[k+"dispatch_p50_ms"] = ms(p.DispatchP50)
		m[k+"dispatch_p99_ms"] = ms(p.DispatchP99)
		for _, ph := range p.Phases {
			pk := k + ph.Phase.String() + "_"
			m[pk+"total_ms"] = ms(ph.Total)
			m[pk+"p50_ms"] = ms(ph.P50)
			m[pk+"p99_ms"] = ms(ph.P99)
		}
	}
	for _, pr := range r.Parity {
		flatten(m, fmt.Sprintf("shard%d_", pr.Shards), attribParityColumns, pr)
	}
	return JSONResult{Experiment: "scale-attrib", Metrics: m}
}

// runAttribPoint replays one (backend, clients) point with an attribution
// collector attached and summarizes the dispatch phase breakdown.
func runAttribPoint(seed int64, requests, clients int, backend string) (AttribPoint, int, error) {
	col := attrib.New(attrib.Options{})
	s := runOpts{steer: backend, attrib: col}.point(seed, requests)
	s.Clients = clients
	run, err := runPoint(s)
	if err != nil {
		return AttribPoint{}, 0, err
	}
	rep := col.Report()
	out := AttribPoint{
		Backend: backend,
		Clients: clients,
		Trees:   rep.Trees,
		Spans:   rep.Spans,
	}
	if h := rep.Roots["dispatch"]; h != nil {
		out.DispatchP50 = h.Percentile(50)
		out.DispatchP99 = h.Percentile(99)
	}
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		h := rep.Excl[p]
		if h.Len() == 0 || h.Sum() == 0 {
			continue
		}
		out.Phases = append(out.Phases, AttribPhase{
			Phase: p,
			Total: h.Sum(),
			P50:   h.Percentile(50),
			P99:   h.Percentile(99),
			Count: h.Len(),
		})
	}
	return out, run.Requests, nil
}

// AttribSweep runs the per-phase dispatch-latency comparison (openflow vs
// srv6 across the client axis), then the PR-10 determinism gates: at every
// shard count in attribParityShards, a replay with attribution attached
// must produce a result fingerprint byte-identical to one without, and the
// attribution report's own fingerprint must not depend on the shard count.
func AttribSweep(seed int64, requests int) (AttribSweepResult, error) {
	var out AttribSweepResult
	for _, backend := range SteerBackends {
		for _, clients := range attribSweepClients {
			p, replayed, err := runAttribPoint(seed, requests, clients, backend)
			if err != nil {
				return out, err
			}
			out.Requests = replayed
			out.Points = append(out.Points, p)
		}
	}
	for _, shards := range attribParityShards {
		col := attrib.New(attrib.Options{})
		base := runOpts{}.point(seed, requests)
		base.Shards = shards
		_, _, match, err := parityGate(shardFingerprint, base, nil, func(s *pointSpec) { s.attrib = col })
		if err != nil {
			return out, err
		}
		out.Parity = append(out.Parity, AttribParity{
			Shards:            shards,
			Match:             match,
			ReportFingerprint: col.Report().Fingerprint(),
		})
	}
	return out, nil
}
