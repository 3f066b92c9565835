package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4): the counter/gauge registry
// rendered as `# TYPE` headers plus `name{labels} value` lines, and a small
// parser for round-trip tests and downstream tooling. Label-bearing series
// keep their labels encoded in the sample name, so the writer only has to
// split the base name off for the TYPE header.

// WritePrometheus renders the registry snapshot in text exposition format.
// Series are sorted by name; each base name gets one TYPE header.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	for _, s := range r.Snapshot() {
		base := s.Name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !seen[base] {
			seen[base] = true
			if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", base, s.Kind); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%s %s\n", s.Name, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteHistText renders a cumulative-bucket duration histogram in text
// exposition format under the given base name (units: seconds, the
// Prometheus convention). each must yield (upperBoundSeconds, cumulative
// count) pairs in increasing bound order; count and sumSeconds are the
// exact totals. The metrics package's log-bucketed Hist plugs in via its
// Each iterator.
func WriteHistText(w io.Writer, name string, each func(yield func(le float64, cumulative uint64)), count uint64, sum time.Duration) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var ferr error
	each(func(le float64, cumulative uint64) {
		if ferr != nil {
			return
		}
		_, ferr = fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatValue(le), cumulative)
	})
	if ferr != nil {
		return ferr
	}
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(bw, "%s_sum %s\n", name, formatValue(sum.Seconds()))
	fmt.Fprintf(bw, "%s_count %d\n", name, count)
	return bw.Flush()
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest-roundtrip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsePrometheus reads text exposition format back into a name → value
// map (labels stay encoded in the name, matching Registry sample names).
// Comment and blank lines are skipped; malformed sample lines are errors.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the name (which may
		// itself contain spaces inside label values) is everything before.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: prometheus line %d: no value in %q", ln, line)
		}
		name := strings.TrimSpace(line[:i])
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: prometheus line %d: bad value in %q: %v", ln, line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortedNames returns the map's keys sorted (test helper for stable
// comparisons of parsed expositions).
func SortedNames(m map[string]float64) []string {
	return slices.Sorted(maps.Keys(m))
}
