package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/sim"
)

// JSONResult is the uniform machine-readable shape every scale and sweep
// experiment emits: the experiment kind, an optional variant name and seed,
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
	DeployErrors []deployError `json:"deploy_errors,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// column declares one metric of a result row exactly once: format places it
// in the text rendering under header ("" format = JSON only), key in the
// flat JSON metric map ("" key = text only), and get reads it from the row.
// A result's String and JSON are both derived from its column list, so a
// metric cannot appear in one and drift or go missing in the other.
type column[T any] struct {
	header string
	key    string
	format string // fmt verb with the cell's width, e.g. "%10d"
	get    func(T) any
}

// Cell value types with a rendering of their own. Everything else prints
// with the column's verb and flattens by numeric conversion: a
// time.Duration prints rounded to the microsecond and flattens to
// milliseconds, a bool flattens to 0/1.
type (
	// digest is a 64-bit fingerprint flattened to its top 52 bits, which a
	// float64 (the JSON shape's number type) holds exactly.
	digest uint64
	// hostWall is a host wall-clock duration, printed to the millisecond.
	hostWall time.Duration
)

// cell formats the column's text cell for row.
func (c column[T]) cell(row T) string {
	v := c.get(row)
	switch d := v.(type) {
	case time.Duration:
		v = d.Round(time.Microsecond)
	case hostWall:
		v = time.Duration(d).Round(time.Millisecond)
	}
	return fmt.Sprintf(c.format, v)
}

// number flattens a cell value for the JSON metric map. An unsupported type
// yields NaN, which encoding/json refuses — a column bug cannot pass silently.
func number(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case time.Duration:
		return ms(x)
	case hostWall:
		return ms(time.Duration(x))
	case digest:
		return float64(x >> 12)
	}
	return math.NaN()
}

// flatten writes every keyed column of row into m under prefix+key, but
// for a cell that is nil.
func flatten[T any](m map[string]float64, prefix string, cols []column[T], row T) {
	for _, c := range cols {
		if v := c.get(row); c.key != "" && v != nil {
			m[prefix+c.key] = number(v)
		}
	}
}

// tableHeader renders the header line of a table whose rows tableRow
// renders: each text column's header, padded to its cells' width.
func tableHeader[T any](b *strings.Builder, cols []column[T]) {
	var cells []string
	for _, c := range cols {
		if c.format != "" {
			// "%-24s" / "%10.2f" -> the flag-and-width prefix, then 's'.
			w := 1 + strings.IndexFunc(c.format[1:], func(r rune) bool { return r != '-' && (r < '0' || r > '9') })
			cells = append(cells, fmt.Sprintf(c.format[:w]+"s", c.header))
		}
	}
	fmt.Fprintf(b, "  %s\n", strings.Join(cells, " "))
}

// tableRow renders row as one indented, space-separated table line.
func tableRow[T any](b *strings.Builder, cols []column[T], row T) {
	var cells []string
	for _, c := range cols {
		if c.format != "" {
			cells = append(cells, c.cell(row))
		}
	}
	fmt.Fprintf(b, "  %s\n", strings.Join(cells, " "))
}

// listing renders row as one "  label   value" line per text column; a
// column whose header starts with "/ " continues the previous line
// ("median / p95   1ms / 2ms").
func listing[T any](b *strings.Builder, cols []column[T], row T) {
	var labels, values []string
	for _, c := range cols {
		switch {
		case c.format == "":
		case strings.HasPrefix(c.header, "/ "):
			labels[len(labels)-1] += " " + c.header
			values[len(values)-1] += " / " + c.cell(row)
		default:
			labels, values = append(labels, c.header), append(values, c.cell(row))
		}
	}
	for i := range labels {
		fmt.Fprintf(b, "  %-16s %s\n", labels[i], values[i])
	}
}

// inline renders row's text columns as space-separated header=value pairs,
// skipping a cell that is nil.
func inline[T any](cols []column[T], row T) string {
	var pairs []string
	for _, c := range cols {
		if c.format != "" && c.get(row) != nil {
			pairs = append(pairs, c.header+"="+c.cell(row))
		}
	}
	return strings.Join(pairs, " ")
}

// kernelStatsMetrics flattens a kernel introspection snapshot into the
// uniform metric map (DESIGN.md §10, kernel introspection).
func kernelStatsMetrics(m map[string]float64, s sim.KernelStats) {
	m["kernel_events"] = float64(s.Events)
	m["kernel_scheduled"] = float64(s.Scheduled)
	m["kernel_wheel_cascades"] = float64(s.WheelCascades)
	m["kernel_wheel_promotions"] = float64(s.WheelPromotions)
	m["kernel_near_high_water"] = float64(s.NearHighWater)
	m["kernel_lanes_high_water"] = float64(s.LanesHighWater)
	m["kernel_proc_coroutines"] = float64(s.CoroutinesCreated)
	m["kernel_proc_starts"] = float64(s.ProcStarts)
	m["kernel_proc_switches"] = float64(s.ProcSwitches)
	m["kernel_live_procs"] = float64(s.LiveProcs)
}

// attribReportMetrics flattens a latency-attribution report into the
// uniform metric map (measured merges it into whichever experiment ran with
// a collector attached): tree/span totals, the report's shard-count-independent
// fingerprint, and per-phase exclusive totals and tail quantiles for every
// phase that saw time.
func attribReportMetrics(m map[string]float64, rep *attrib.Report) {
	m["attrib_trees"] = float64(rep.Trees)
	m["attrib_spans"] = float64(rep.Spans)
	m["attrib_dropped_spans"] = float64(rep.DroppedSpans)
	m["attrib_breaches"] = float64(len(rep.Breaches))
	m["attrib_report_fp"] = number(digest(rep.Fingerprint()))
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
		k.CoroutinesCreated += s.Kernel.CoroutinesCreated
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

// JSON returns one uniform entry per measurement.
func (r dispatchScaleResult) JSON() []JSONResult {
	var out []JSONResult
	for _, d := range r {
		out = append(out, JSONResult{
			Experiment: "scale-dispatch",
			Metrics: map[string]float64{
				"clusters":    float64(d.Clusters),
				"serial":      number(d.Serial),
				"dispatch_ms": ms(d.Dispatch),
			},
		})
	}
	return out
}

// JSON returns the uniform result shape.
func (r cookieChurnResult) JSON() JSONResult {
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
