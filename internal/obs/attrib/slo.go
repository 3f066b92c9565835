package attrib

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"transparentedge/internal/obs"
)

// SLO is one latency objective: "the Q'th percentile of ROOT-span durations
// stays at or under Threshold". Objectives are checked online as trees
// finalize, against the same bounded histograms the final report uses, so a
// breach verdict is deterministic in virtual time — it does not depend on
// wall-clock sampling.
type SLO struct {
	// Root is the root-span name the objective applies to, one of
	// RootNames. Empty means every root name (checked per name).
	Root string
	// Quantile is the percentile in (0, 100].
	Quantile float64
	// Threshold is the maximum acceptable duration at that quantile.
	Threshold time.Duration
}

// DefaultSLOMinSamples is the warm-up: no SLO verdict before this many
// samples of the root's duration exist. Without it the first slow request
// of a cold run would trip a p99 objective.
const DefaultSLOMinSamples = 100

// String renders the SLO in ParseSLO's input syntax.
func (s SLO) String() string {
	q := strconv.FormatFloat(s.Quantile, 'f', -1, 64)
	if s.Root == "" {
		return fmt.Sprintf("p%s=%v", q, s.Threshold)
	}
	return fmt.Sprintf("%s:p%s=%v", s.Root, q, s.Threshold)
}

// ParseSLO parses "[root:]pQQ=duration" — e.g. "p99=2ms" (any root),
// "request:p99.9=5ms", "dispatch:p50=300us". A root outside RootNames is an
// error: no span would ever reach the objective.
func ParseSLO(spec string) (SLO, error) {
	var slo SLO
	rest := spec
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		slo.Root = rest[:i]
		rest = rest[i+1:]
		if slo.Root != "" && !slices.Contains(RootNames, slo.Root) {
			return SLO{}, fmt.Errorf("attrib: SLO %q: unknown root %q (want one of %s)", spec, slo.Root, strings.Join(RootNames, ", "))
		}
	}
	eq := strings.IndexByte(rest, '=')
	if eq < 0 || len(rest) == 0 || rest[0] != 'p' {
		return SLO{}, fmt.Errorf("attrib: SLO %q: want [root:]pQQ=duration", spec)
	}
	q, err := strconv.ParseFloat(rest[1:eq], 64)
	if err != nil || !(q > 0 && q <= 100) { // NaN fails every comparison
		return SLO{}, fmt.Errorf("attrib: SLO %q: bad quantile %q", spec, rest[1:eq])
	}
	slo.Quantile = q
	d, err := time.ParseDuration(rest[eq+1:])
	if err != nil || d <= 0 {
		return SLO{}, fmt.Errorf("attrib: SLO %q: bad threshold %q", spec, rest[eq+1:])
	}
	slo.Threshold = d
	return slo, nil
}

// ParseSLOs parses a comma-separated SLO list ("" -> nil).
func ParseSLOs(specs string) ([]SLO, error) {
	if specs == "" {
		return nil, nil
	}
	var out []SLO
	for _, part := range strings.Split(specs, ",") {
		slo, err := ParseSLO(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, slo)
	}
	return out, nil
}

// Breach records an SLO's first violation, with the flight recorder's
// contents at that instant — the last trees retained before (and including)
// the one that tipped the quantile over.
type Breach struct {
	// SLO is the violated objective; Root is the concrete root name it
	// tripped on (equal to SLO.Root unless that was empty).
	SLO  SLO
	Root string
	// Observed is the quantile's value at breach time; Samples is how many
	// root durations had been folded in.
	Observed time.Duration
	Samples  int
	// Trees is the flight-recorder dump, oldest first; the newest tree is
	// the one whose arrival tripped the objective.
	Trees [][]obs.Span
}

// sloState tracks one objective; fired keys the root names that already
// breached (an SLO with an empty Root can fire once per root name).
type sloState struct {
	slo   SLO
	fired map[string]bool
}

// checkSLOs evaluates every armed objective against the just-updated root
// histogram; first breach per (objective, root) fires the dump.
func (c *Collector) checkSLOs(root obs.Span) {
	for i := range c.watch {
		st := &c.watch[i]
		if st.slo.Root != "" && st.slo.Root != root.Name {
			continue
		}
		if st.fired[root.Name] {
			continue
		}
		h := c.roots[root.Name]
		if h.Len() < DefaultSLOMinSamples {
			continue
		}
		got := h.Percentile(st.slo.Quantile)
		if got <= st.slo.Threshold {
			continue
		}
		if st.fired == nil {
			st.fired = make(map[string]bool)
		}
		st.fired[root.Name] = true
		b := Breach{
			SLO:      st.slo,
			Root:     root.Name,
			Observed: got,
			Samples:  h.Len(),
			Trees:    c.FlightTrees(),
		}
		c.breaches = append(c.breaches, b)
		if c.opts.OnBreach != nil {
			c.opts.OnBreach(b)
		}
	}
}
