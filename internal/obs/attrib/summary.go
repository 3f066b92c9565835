package attrib

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"
)

// Summary renders the report as a compact text block: the per-phase
// exclusive-time breakdown (with the critical-path share), the root-span
// distributions the SLOs watch, and any breaches — what the edgesim CLI
// prints for -attrib runs in text mode.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency attribution: %d trees / %d spans", r.Trees, r.Spans)
	if r.DroppedSpans > 0 {
		fmt.Fprintf(&b, " (%d spans dropped at stream boundaries)", r.DroppedSpans)
	}
	b.WriteByte('\n')
	if r.Trees == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "  %-13s %12s %10s %10s %12s %8s\n",
		"phase", "excl total", "p50", "p99", "on crit path", "n")
	for p := Phase(0); p < NumPhases; p++ {
		h := r.Excl[p]
		if h.Len() == 0 || h.Sum() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-13s %12v %10v %10v %12v %8d\n",
			p, round(h.Sum()), round(h.Percentile(50)), round(h.Percentile(99)),
			round(r.Crit[p].Sum()), h.Len())
	}
	for _, n := range slices.Sorted(maps.Keys(r.Roots)) {
		h := r.Roots[n]
		fmt.Fprintf(&b, "  root %-12s p50 %10v  p99 %10v  n=%d\n",
			n, round(h.Percentile(50)), round(h.Percentile(99)), h.Len())
	}
	for _, br := range r.Breaches {
		fmt.Fprintf(&b, "  SLO BREACH %v: %s observed %v over %d samples\n",
			br.SLO, br.Root, round(br.Observed), br.Samples)
	}
	return b.String()
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
