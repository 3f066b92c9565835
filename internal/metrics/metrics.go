// Package metrics collects and summarizes latency samples the way the
// paper's evaluation does: per-request total times (timecurl-style),
// reduced to medians and percentiles, and rendered as rows/series matching
// the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one measured duration with the (virtual) time it was taken.
type Sample struct {
	At    time.Duration // simulation timestamp of the measurement
	Value time.Duration // measured quantity (e.g. request total time)
}

// Series is an append-only collection of samples with summary statistics.
//
// A series built with NewSeries retains every sample exactly. A series
// built with NewBoundedSeries folds into a fixed-memory log-bucketed Hist
// once the sample count exceeds its threshold: summary statistics stay
// available (quantiles become ≤1.6%-error approximations; Len/Max/Mean
// remain exact) while memory stops growing with the sample count —
// the mode million-request replays run in.
type Series struct {
	Name    string
	samples []Sample
	// sortedCache memoizes sorted() between Adds so repeated Percentile/
	// Median calls on a frozen series cost one sort total.
	sortedCache []time.Duration
	maxExact    int   // >0: fold into hist once len(samples) exceeds it
	hist        *Hist // non-nil once folded
}

// NewSeries returns an empty named series that retains every sample.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewBoundedSeries returns an empty named series that retains at most
// maxExact samples exactly and degrades to a log-bucketed histogram beyond
// that. maxExact <= 0 means unbounded (identical to NewSeries).
func NewBoundedSeries(name string, maxExact int) *Series {
	return &Series{Name: name, maxExact: maxExact}
}

// Add records a sample.
func (s *Series) Add(at, value time.Duration) {
	s.sortedCache = nil
	if s.hist != nil {
		s.hist.Add(at, value)
		return
	}
	s.samples = append(s.samples, Sample{At: at, Value: value})
	if s.maxExact > 0 && len(s.samples) > s.maxExact {
		s.fold()
	}
}

// fold moves the retained samples into a histogram and drops them.
func (s *Series) fold() {
	h := NewHist(s.Name)
	for _, smp := range s.samples {
		h.Add(smp.At, smp.Value)
	}
	s.hist = h
	s.samples = nil
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if s.hist != nil {
		return s.hist.Len()
	}
	return len(s.samples)
}

// Samples returns a copy of the recorded samples in insertion order. In
// histogram mode the raw samples are no longer retained and Samples
// returns nil.
func (s *Series) Samples() []Sample {
	if s.hist != nil {
		return nil
	}
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Values returns the sample values in insertion order (nil in histogram
// mode; see Samples).
func (s *Series) Values() []time.Duration {
	if s.hist != nil {
		return nil
	}
	out := make([]time.Duration, len(s.samples))
	for i, smp := range s.samples {
		out[i] = smp.Value
	}
	return out
}

func (s *Series) sorted() []time.Duration {
	if s.sortedCache == nil {
		vals := s.Values()
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s.sortedCache = vals
	}
	return s.sortedCache
}

// Median returns the median sample value (0 for an empty series).
func (s *Series) Median() time.Duration { return s.Percentile(50) }

// Percentile returns the p-th percentile (nearest-rank with linear
// interpolation; approximate in histogram mode). p must be in [0,100].
func (s *Series) Percentile(p float64) time.Duration {
	if s.hist != nil {
		return s.hist.Percentile(p)
	}
	if len(s.samples) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	vals := s.sorted()
	if len(vals) == 1 {
		return vals[0]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vals[lo]
	}
	frac := rank - float64(lo)
	return vals[lo] + time.Duration(frac*float64(vals[hi]-vals[lo]))
}

// Max returns the largest sample value (0 for an empty series).
func (s *Series) Max() time.Duration {
	if s.hist != nil {
		return s.hist.Max()
	}
	var max time.Duration
	for _, smp := range s.samples {
		if smp.Value > max {
			max = smp.Value
		}
	}
	return max
}

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() time.Duration {
	if s.hist != nil {
		return s.hist.Mean()
	}
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, smp := range s.samples {
		sum += smp.Value
	}
	return sum / time.Duration(len(s.samples))
}

// ToHist returns the series' samples as a log-bucketed Hist: a copy of the
// internal histogram once folded, or a fresh fold of the retained samples.
// The result is independent of the series and safe to Merge elsewhere.
func (s *Series) ToHist() *Hist {
	if s.hist != nil {
		return s.hist.Clone()
	}
	h := NewHist(s.Name)
	for _, smp := range s.samples {
		h.Add(smp.At, smp.Value)
	}
	return h
}

// RetainedBytes reports the approximate memory retained by the series —
// proportional to the sample count in exact mode, fixed in histogram mode.
func (s *Series) RetainedBytes() int {
	if s.hist != nil {
		return s.hist.RetainedBytes()
	}
	const sampleSize = 16 // two int64 fields
	return cap(s.samples)*sampleSize + cap(s.sortedCache)*8
}

// Table renders named rows of duration cells with a header, in the style of
// the paper's per-figure summaries.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	name  string
	cells []time.Duration
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the number of cells must match the column count.
func (t *Table) AddRow(name string, cells ...time.Duration) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row %q has %d cells, table has %d columns",
			name, len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, tableRow{name: name, cells: cells})
}

// Cell returns the value at (row name, column name); ok is false when the
// row or column does not exist.
func (t *Table) Cell(row, col string) (time.Duration, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.rows {
		if r.name == row {
			return r.cells[ci], true
		}
	}
	return 0, false
}

// FormatDuration renders a duration with millisecond precision, the
// resolution the paper reports.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2f s", d.Seconds())
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	width := 12
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	nameWidth := 10
	for _, r := range t.rows {
		if len(r.name) > nameWidth {
			nameWidth = len(r.name)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameWidth+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", nameWidth+2, r.name)
		for _, v := range r.cells {
			fmt.Fprintf(&b, "%*s", width, FormatDuration(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (row name first), for
// plotting the figures outside Go.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("name")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(r.name)
		for _, v := range r.cells {
			fmt.Fprintf(&b, ",%.3f", float64(v)/float64(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
