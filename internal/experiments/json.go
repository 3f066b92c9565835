package experiments

import (
	"time"

	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/sim"
)

// JSONResult is the uniform machine-readable shape every edgesim scale/sweep
// subcommand emits: the experiment kind, an optional variant name and seed,
// and a flat metric map (durations in milliseconds), so downstream plotting
// never needs per-experiment parsing.
type JSONResult struct {
	Experiment string             `json:"experiment"`
	Name       string             `json:"name,omitempty"`
	Seed       int64              `json:"seed,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Counters is the obs registry snapshot (present only when the run was
	// invoked with counters enabled).
	Counters map[string]float64 `json:"counters,omitempty"`
	// DeployErrors lists deployments that exhausted retries, with their
	// attempt counts and error strings (scale-faults variants).
	DeployErrors []DeployError `json:"deploy_errors,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// JSON returns the uniform result shape.
func (r ReplayScaleResult) JSON() JSONResult {
	m := map[string]float64{
		"requests":       float64(r.Requests),
		"wall_ms":        ms(r.Wall),
		"allocs_per_req": r.AllocsPerRequest,
		"series_bytes":   float64(r.SeriesBytes),
		"errors":         float64(r.Errors),
		"median_ms":      ms(r.Median),
		"p95_ms":         ms(r.P95),
		"deployments":    float64(r.Deployments),
	}
	if r.Spans > 0 {
		m["spans"] = float64(r.Spans)
		m["request_spans"] = float64(r.RequestSpans)
	}
	kernelStatsMetrics(m, r.Kernel)
	return JSONResult{
		Experiment: "scale-replay",
		Metrics:    m,
		Counters:   r.Counters,
	}
}

// kernelStatsMetrics flattens a kernel introspection snapshot into the
// uniform metric map (DESIGN.md §17's kernel-stats block).
func kernelStatsMetrics(m map[string]float64, s sim.KernelStats) {
	m["kernel_events"] = float64(s.Events)
	m["kernel_scheduled"] = float64(s.Scheduled)
	m["kernel_wheel_cascades"] = float64(s.WheelCascades)
	m["kernel_wheel_promotions"] = float64(s.WheelPromotions)
	m["kernel_near_high_water"] = float64(s.NearHighWater)
	m["kernel_lanes_high_water"] = float64(s.LanesHighWater)
	m["kernel_proc_starts"] = float64(s.ProcStarts)
	m["kernel_proc_switches"] = float64(s.ProcSwitches)
	m["kernel_live_procs"] = float64(s.LiveProcs)
}

// AttribReportMetrics flattens a latency-attribution report into the
// uniform metric map (the edgesim CLI merges it into whichever experiment
// ran with -attrib): tree/span totals, the report's shard-count-independent
// fingerprint, and per-phase exclusive totals and tail quantiles for every
// phase that saw time.
func AttribReportMetrics(m map[string]float64, rep *attrib.Report) {
	m["attrib_trees"] = float64(rep.Trees)
	m["attrib_spans"] = float64(rep.Spans)
	m["attrib_dropped_spans"] = float64(rep.DroppedSpans)
	m["attrib_breaches"] = float64(len(rep.Breaches))
	m["attrib_report_fp"] = float64(rep.Fingerprint() >> 12) // 52-bit float-safe digest
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		h := rep.Excl[p]
		if h.Len() == 0 || h.Sum() == 0 {
			continue
		}
		k := "attrib_" + p.String() + "_"
		m[k+"excl_ms"] = ms(h.Sum())
		m[k+"p50_ms"] = ms(h.Percentile(50))
		m[k+"p99_ms"] = ms(h.Percentile(99))
		if c := rep.Crit[p]; c.Sum() > 0 {
			m[k+"crit_ms"] = ms(c.Sum())
		}
	}
}

// groupStatsMetrics flattens a shard group snapshot: whole-group window
// counts plus per-kernel sums (the per-shard split stays available via the
// Go API; the flat map keeps the JSON shape uniform).
func groupStatsMetrics(m map[string]float64, g sim.GroupStats) {
	m["group_windows"] = float64(g.Windows)
	m["group_lookahead_ms"] = ms(time.Duration(g.Lookahead))
	var k sim.KernelStats
	var vstall time.Duration
	var wstall time.Duration
	var sent uint64
	for _, s := range g.Shards {
		k.Events += s.Kernel.Events
		k.Scheduled += s.Kernel.Scheduled
		k.WheelCascades += s.Kernel.WheelCascades
		k.WheelPromotions += s.Kernel.WheelPromotions
		k.ProcStarts += s.Kernel.ProcStarts
		k.ProcSwitches += s.Kernel.ProcSwitches
		k.LiveProcs += s.Kernel.LiveProcs
		if s.Kernel.NearHighWater > k.NearHighWater {
			k.NearHighWater = s.Kernel.NearHighWater
		}
		if s.Kernel.LanesHighWater > k.LanesHighWater {
			k.LanesHighWater = s.Kernel.LanesHighWater
		}
		vstall += time.Duration(s.BarrierStallVirtual)
		wstall += s.BarrierStallWall
		sent += s.SentMessages
	}
	kernelStatsMetrics(m, k)
	m["group_cross_shard_msgs"] = float64(sent)
	m["group_barrier_stall_virtual_ms"] = ms(vstall)
	if wstall > 0 {
		m["group_barrier_stall_wall_ms"] = ms(wstall)
	}
}

// JSON returns the uniform result shape.
func (r DispatchScaleResult) JSON() JSONResult {
	serial := 0.0
	if r.Serial {
		serial = 1
	}
	return JSONResult{
		Experiment: "scale-dispatch",
		Metrics: map[string]float64{
			"clusters":    float64(r.Clusters),
			"serial":      serial,
			"dispatch_ms": ms(r.Dispatch),
		},
	}
}

// JSON returns the uniform result shape.
func (r CookieChurnResult) JSON() JSONResult {
	return JSONResult{
		Experiment: "scale-churn",
		Metrics: map[string]float64{
			"clients":           float64(r.Clients),
			"peak_cookies":      float64(r.PeakCookies),
			"peak_client_locs":  float64(r.PeakClientLocs),
			"peak_memory":       float64(r.PeakMemory),
			"final_cookies":     float64(r.FinalCookies),
			"final_client_locs": float64(r.FinalClientLocs),
			"final_memory":      float64(r.FinalMemory),
		},
	}
}

// JSON returns one uniform entry per variant plus a "merged" aggregate.
func (r SweepResult) JSON() []JSONResult {
	out := make([]JSONResult, 0, len(r.Variants)+1)
	for _, v := range r.Variants {
		m := map[string]float64{
			"requests":    float64(v.Requests),
			"errors":      float64(v.Errors),
			"deployments": float64(v.Deployments),
			"median_ms":   ms(v.Median),
			"p95_ms":      ms(v.P95),
			"mean_ms":     ms(v.Mean),
			"max_ms":      ms(v.Max),
			"wall_ms":     ms(v.Wall),
			"fingerprint": float64(v.Fingerprint() >> 12), // 52-bit float-safe digest
		}
		if v.Err != nil {
			m["failed"] = 1
		}
		out = append(out, JSONResult{
			Experiment: "sweep",
			Name:       v.Variant.Label(),
			Seed:       v.Variant.Seed,
			Metrics:    m,
			Counters:   v.Counters,
		})
	}
	out = append(out, JSONResult{
		Experiment: "sweep",
		Name:       "merged",
		Metrics: map[string]float64{
			"requests":  float64(r.Merged.Len()),
			"median_ms": ms(r.Merged.Median()),
			"p95_ms":    ms(r.Merged.Percentile(95)),
			"procs":     float64(r.Procs),
			"wall_ms":   ms(r.Wall),
		},
	})
	return out
}

// JSON returns one uniform entry per fault variant.
func (r FaultSweepResult) JSON() []JSONResult {
	out := make([]JSONResult, 0, len(r.Variants))
	for _, v := range r.Variants {
		m := map[string]float64{
			"requests":             float64(v.Requests),
			"errors":               float64(v.Errors),
			"deployments":          float64(v.Deployments),
			"deploy_attempts":      float64(v.DeployAttempts),
			"deploy_retries":       float64(v.DeployRetries),
			"deploy_failures":      float64(v.DeployFailures),
			"fallback_deployments": float64(v.FallbackDeploys),
			"cloud_fallbacks":      float64(v.CloudFallbacks),
			"median_ms":            ms(v.Median),
			"p95_ms":               ms(v.P95),
			"wall_ms":              ms(v.Wall),
			"fingerprint":          float64(v.Fingerprint() >> 12), // 52-bit float-safe digest
		}
		if v.Err != nil {
			m["failed"] = 1
		}
		out = append(out, JSONResult{
			Experiment:   "scale-faults",
			Name:         v.Variant.Label(),
			Seed:         v.Variant.Seed,
			Metrics:      m,
			Counters:     v.Counters,
			DeployErrors: v.FailedDeploys,
		})
	}
	return out
}
