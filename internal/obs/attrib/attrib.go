// Package attrib is the latency-attribution engine: it folds the span trees
// the dispatch pipeline emits (obs.Span) into per-phase exclusive-time
// histograms, critical-path breakdowns, and flame-graph exports — all in
// virtual time, so every number is deterministic and bit-identical at every
// shard count.
//
// The contract mirrors the rest of the observability layer (DESIGN.md §10):
//
//   - Zero-cost when off. A nil *Collector is valid; Observe on it is an
//     inlined nil check with zero allocations.
//   - Observation only. The collector is a passive span sink — it never
//     schedules events, reads the clock, or feeds back into the simulation,
//     so attribution-on runs produce byte-identical result fingerprints to
//     attribution-off runs.
//   - Exact decomposition. Per tree, the exclusive times attributed to its
//     spans sum to the root span's duration exactly: the sweep partitions
//     the root interval and charges every elementary slice to precisely one
//     covering span (the deepest; ties broken by later start, then larger
//     ID — i.e. the most specific work active in that slice).
package attrib

import (
	"maps"
	"slices"
	"sort"
	"time"

	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
)

// Phase buckets span names into the pipeline stages the paper's latency
// story is told in (§IV: dispatch = state query + schedule + deploy phases;
// the request path adds network transfer and cloud fallback).
type Phase uint8

const (
	// PhaseQueueing is time a dispatch spent waiting on another in-flight
	// deployment of the same service ("deploy_wait").
	PhaseQueueing Phase = iota
	// PhaseNetwork is client-observed transfer time: the replay layer's
	// "request" roots, which bracket the whole network round trip.
	PhaseNetwork
	// PhaseStateQuery covers the dispatcher's state lookups: flow-memory
	// hits/misses and the cluster state query.
	PhaseStateQuery
	// PhaseSchedule is dispatcher decision time: the dispatch root's own
	// time, the scheduler call, and the deploy coordinator's bookkeeping.
	PhaseSchedule
	// PhasePull, PhaseCreate, PhaseScaleUp, PhaseProbe are the deployment
	// pipeline's phases (§IV-C).
	PhasePull
	PhaseCreate
	PhaseScaleUp
	PhaseProbe
	// PhaseFlowInstall is steering-rule installation at the switch.
	PhaseFlowInstall
	// PhaseReAnchor is handover steering-state migration (continuity gaps).
	PhaseReAnchor
	// PhaseCloudForward is time requests spent falling back to the cloud.
	PhaseCloudForward
	// PhaseOther catches span names the mapping does not know.
	PhaseOther

	// NumPhases is the number of phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"queueing", "network", "state_query", "schedule", "pull", "create",
	"scale_up", "probe", "flow_install", "reanchor", "cloud_forward", "other",
}

// String returns the phase's stable snake_case name (JSON keys, flame
// frames, CLI tables).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "other"
}

// PhaseOf maps a span name to its phase. Unknown names land in PhaseOther
// rather than being dropped, so the sum-to-root property survives new span
// names.
func PhaseOf(name string) Phase {
	switch name {
	case "deploy_wait":
		return PhaseQueueing
	case "request":
		return PhaseNetwork
	case "state_query", "memory_hit", "memory_miss":
		return PhaseStateQuery
	case "dispatch", "schedule", "deploy", "deploy_best":
		return PhaseSchedule
	case "pull":
		return PhasePull
	case "create":
		return PhaseCreate
	case "scale_up":
		return PhaseScaleUp
	case "probe":
		return PhaseProbe
	case "flow_install":
		return PhaseFlowInstall
	case "reanchor", "handover":
		return PhaseReAnchor
	case "cloud_forward", "fallback":
		return PhaseCloudForward
	}
	return PhaseOther
}

// Options configures a Collector.
type Options struct {
	// FlightTrees is the flight recorder's capacity: the last N finalized
	// span trees are retained so an SLO breach can dump the trees that led
	// up to it. <= 0 selects DefaultFlightTrees.
	FlightTrees int
	// SLOs are latency objectives checked against root-span durations as
	// trees finalize (see ParseSLO).
	SLOs []SLO
	// OnBreach, when set, is called synchronously on each SLO's first
	// breach with the flight recorder's contents at that instant.
	OnBreach func(Breach)
}

// DefaultFlightTrees is the flight-recorder ring capacity for Options
// with FlightTrees <= 0.
const DefaultFlightTrees = 32

// RootNames are the root-span names the codebase emits: the replay's
// "request", the dispatcher's "dispatch" and its background "deploy_best",
// and the mobility layer's "handover". An SLO names one of them, or none.
var RootNames = []string{"request", "dispatch", "deploy_best", "handover"}

// Collector streams spans into the attribution state. It is a plain span
// sink: connect it via obs.Tracer.SetSink (possibly chained after a trace
// writer) and feed every emitted span to Observe.
//
// Span trees arrive children-first: every emitter in this codebase emits a
// root span after all of its descendants, so a tree is complete — and is
// finalized — the moment its root (ID == Root) appears. Trees are keyed by
// root ID, which is only unique per tracer; when spans from several tracers
// share one collector (the sharded replay drains per-site tracers in
// sequence), call EndStream at each tracer boundary so the next tracer's
// IDs cannot collide with still-pending trees.
//
// A nil *Collector is valid and free: every method no-ops.
type Collector struct {
	opts    Options
	pending map[uint64][]obs.Span
	free    [][]obs.Span

	spans   uint64
	trees   uint64
	dropped uint64

	excl  [NumPhases]*metrics.Hist
	crit  [NumPhases]*metrics.Hist
	roots map[string]*metrics.Hist

	folded map[string]int64

	flight   [][]obs.Span
	flightAt int

	watch    []sloState
	breaches []Breach

	// finalize scratch (reused across trees; trees are small).
	scratch treeScratch
}

type treeScratch struct {
	index    map[uint64]int
	depth    []int
	bounds   []time.Duration
	excl     []time.Duration
	children map[uint64][]int
	onPath   []bool
	stack    []byte
}

// New returns a collector with the given options.
func New(opts Options) *Collector {
	if opts.FlightTrees <= 0 {
		opts.FlightTrees = DefaultFlightTrees
	}
	c := &Collector{
		opts:    opts,
		pending: make(map[uint64][]obs.Span),
		roots:   make(map[string]*metrics.Hist),
		folded:  make(map[string]int64),
		flight:  make([][]obs.Span, 0, opts.FlightTrees),
	}
	for p := Phase(0); p < NumPhases; p++ {
		c.excl[p] = metrics.NewHist("attrib_excl_" + p.String())
		c.crit[p] = metrics.NewHist("attrib_crit_" + p.String())
	}
	for _, slo := range opts.SLOs {
		c.watch = append(c.watch, sloState{slo: slo})
	}
	c.scratch.index = make(map[uint64]int)
	c.scratch.children = make(map[uint64][]int)
	return c
}

// Observe feeds one emitted span to the collector. Nil-safe and
// allocation-free on a nil receiver (the off state).
func (c *Collector) Observe(s obs.Span) {
	if c == nil {
		return
	}
	c.spans++
	if s.ID != 0 && s.ID == s.Root {
		tree := c.pending[s.Root]
		if tree != nil {
			delete(c.pending, s.Root)
		}
		tree = append(tree, s)
		c.finalize(tree)
		c.record(tree)
		c.checkSLOs(s)
		return
	}
	c.pending[s.Root] = append(c.takePending(s.Root), s)
}

func (c *Collector) takePending(root uint64) []obs.Span {
	if t, ok := c.pending[root]; ok {
		return t
	}
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		return t
	}
	return nil
}

// record pushes a finalized tree into the flight-recorder ring and recycles
// its buffer.
func (c *Collector) record(tree []obs.Span) {
	cp := make([]obs.Span, len(tree))
	copy(cp, tree)
	if len(c.flight) < cap(c.flight) {
		c.flight = append(c.flight, cp)
	} else {
		c.flight[c.flightAt] = cp
	}
	c.flightAt = (c.flightAt + 1) % cap(c.flight)
	c.free = append(c.free, tree[:0])
}

// EndStream marks a tracer boundary: pending trees that never saw their
// root are dropped (counted in DroppedSpans) and the root-ID keyspace
// resets, so a following tracer's IDs cannot merge into stale trees.
// Aggregated state (histograms, flame stacks, flight ring) carries across —
// stacks and phases are keyed by name, not by ID.
func (c *Collector) EndStream() {
	if c == nil {
		return
	}
	for root, tree := range c.pending {
		c.dropped += uint64(len(tree))
		delete(c.pending, root)
		c.free = append(c.free, tree[:0])
	}
}

// finalize attributes one complete tree (root is the last element).
func (c *Collector) finalize(tree []obs.Span) {
	c.trees++
	root := tree[len(tree)-1]

	sc := &c.scratch
	for k := range sc.index {
		delete(sc.index, k)
	}
	for k := range sc.children {
		delete(sc.children, k)
	}
	sc.depth = sc.depth[:0]
	sc.excl = sc.excl[:0]
	sc.onPath = sc.onPath[:0]
	for i, s := range tree {
		if s.ID != 0 {
			sc.index[s.ID] = i
		}
		sc.depth = append(sc.depth, -1)
		sc.excl = append(sc.excl, 0)
		sc.onPath = append(sc.onPath, false)
	}
	for i := range tree {
		c.depthOf(tree, i)
	}
	for i, s := range tree {
		if i == len(tree)-1 {
			continue
		}
		if _, ok := sc.index[s.Parent]; ok {
			sc.children[s.Parent] = append(sc.children[s.Parent], i)
		}
	}

	c.sweep(tree, root)
	c.markCritical(tree, root)

	// Fold into the aggregate state.
	rh := c.roots[root.Name]
	if rh == nil {
		rh = metrics.NewHist("attrib_root_" + root.Name)
		c.roots[root.Name] = rh
	}
	rh.Add(root.Start, root.Dur())
	for i, s := range tree {
		e := sc.excl[i]
		ph := PhaseOf(s.Name)
		c.excl[ph].Add(s.Start, e)
		if sc.onPath[i] {
			c.crit[ph].Add(s.Start, e)
		}
		if e > 0 {
			c.folded[c.stackOf(tree, i)] += int64(e)
		}
	}
}

// depthOf computes (and memoizes) a span's depth: 0 for the root, parent
// depth + 1 otherwise. A span whose parent is missing from the tree hangs
// directly under the root.
func (c *Collector) depthOf(tree []obs.Span, i int) int {
	sc := &c.scratch
	if sc.depth[i] >= 0 {
		return sc.depth[i]
	}
	s := tree[i]
	d := 0
	switch {
	case s.ID == s.Root:
		d = 0
	case s.Parent == 0:
		d = 1
	default:
		if pi, ok := sc.index[s.Parent]; ok && pi != i {
			sc.depth[i] = 1 // break cycles defensively
			d = c.depthOf(tree, pi) + 1
		} else {
			d = 1
		}
	}
	sc.depth[i] = d
	return d
}

// sweep partitions the root interval at every clamped span boundary and
// charges each elementary slice to its deepest covering span (ties: later
// Start, then larger ID). Every slice is covered at least by the root, and
// charged exactly once, so the per-span exclusive times sum to the root
// duration by construction.
func (c *Collector) sweep(tree []obs.Span, root obs.Span) {
	sc := &c.scratch
	sc.bounds = sc.bounds[:0]
	clamp := func(t time.Duration) time.Duration {
		if t < root.Start {
			return root.Start
		}
		if t > root.End {
			return root.End
		}
		return t
	}
	for _, s := range tree {
		sc.bounds = append(sc.bounds, clamp(s.Start), clamp(s.End))
	}
	sort.Slice(sc.bounds, func(i, j int) bool { return sc.bounds[i] < sc.bounds[j] })
	uniq := sc.bounds[:0]
	for _, b := range sc.bounds {
		if len(uniq) == 0 || uniq[len(uniq)-1] != b {
			uniq = append(uniq, b)
		}
	}
	sc.bounds = uniq
	for bi := 0; bi+1 < len(sc.bounds); bi++ {
		lo, hi := sc.bounds[bi], sc.bounds[bi+1]
		best, bestDepth := -1, -1
		for i, s := range tree {
			start, end := clamp(s.Start), clamp(s.End)
			if start > lo || end < hi {
				continue
			}
			d := sc.depth[i]
			if best < 0 || d > bestDepth ||
				(d == bestDepth && (s.Start > tree[best].Start ||
					(s.Start == tree[best].Start && s.ID > tree[best].ID))) {
				best, bestDepth = i, d
			}
		}
		if best >= 0 {
			sc.excl[best] += hi - lo
		}
	}
}

// markCritical walks the critical path: from the root, repeatedly descend
// into the child that finished last (ties: larger ID), until a leaf. The
// root is always on the path.
func (c *Collector) markCritical(tree []obs.Span, root obs.Span) {
	sc := &c.scratch
	cur := len(tree) - 1
	sc.onPath[cur] = true
	id := root.ID
	for {
		kids := sc.children[id]
		if len(kids) == 0 {
			return
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if tree[k].End > tree[best].End ||
				(tree[k].End == tree[best].End && tree[k].ID > tree[best].ID) {
				best = k
			}
		}
		sc.onPath[best] = true
		id = tree[best].ID
		if id == 0 {
			return
		}
	}
}

// stackOf builds the folded-stack frame path for span i: names from the
// root down to the span, joined with ';' (Brendan Gregg's collapsed format).
func (c *Collector) stackOf(tree []obs.Span, i int) string {
	sc := &c.scratch
	var frames []int
	for steps := 0; steps <= len(tree); steps++ {
		frames = append(frames, i)
		s := tree[i]
		if s.ID == s.Root || s.Parent == 0 {
			break
		}
		pi, ok := sc.index[s.Parent]
		if !ok || pi == i {
			frames = append(frames, len(tree)-1) // orphan: hang under root
			break
		}
		i = pi
	}
	sc.stack = sc.stack[:0]
	for fi := len(frames) - 1; fi >= 0; fi-- {
		if len(sc.stack) > 0 {
			sc.stack = append(sc.stack, ';')
		}
		sc.stack = append(sc.stack, tree[frames[fi]].Name...)
	}
	return string(sc.stack)
}

// Report is the collector's aggregated view, ready for JSON rendering or
// flame-graph export. The histograms are the collector's own (not copies);
// take the report after the run.
type Report struct {
	// Spans and Trees count observed spans and finalized trees;
	// DroppedSpans counts spans of trees abandoned at stream boundaries.
	Spans, Trees, DroppedSpans uint64
	// Excl[p] aggregates exclusive (self) time attributed to phase p.
	// Crit[p] aggregates only the exclusive time of spans on their tree's
	// critical path.
	Excl, Crit [NumPhases]*metrics.Hist
	// Roots maps root span names ("request", "dispatch", ...) to their
	// duration histograms — the distributions SLOs are checked against.
	Roots map[string]*metrics.Hist
	// Folded maps ';'-joined frame paths to total exclusive nanoseconds
	// (the flame graph, in collapsed-stack form).
	Folded map[string]int64
	// Breaches lists SLO breaches in the order they fired.
	Breaches []Breach
}

// Report snapshots the collector. Nil-safe (returns an empty report).
func (c *Collector) Report() *Report {
	if c == nil {
		return &Report{Roots: map[string]*metrics.Hist{}, Folded: map[string]int64{}}
	}
	r := &Report{
		Spans:        c.spans,
		Trees:        c.trees,
		DroppedSpans: c.dropped,
		Excl:         c.excl,
		Crit:         c.crit,
		Roots:        c.roots,
		Folded:       c.folded,
		Breaches:     c.breaches,
	}
	return r
}

// FlightTrees returns the flight recorder's retained trees, oldest first.
// Nil-safe.
func (c *Collector) FlightTrees() [][]obs.Span {
	if c == nil {
		return nil
	}
	out := make([][]obs.Span, 0, len(c.flight))
	if len(c.flight) < cap(c.flight) {
		return append(out, c.flight...)
	}
	out = append(out, c.flight[c.flightAt:]...)
	out = append(out, c.flight[:c.flightAt]...)
	return out
}

// Fingerprint folds the deterministic attribution state (phase histograms,
// root histograms, folded stacks) into one comparable value — the
// determinism gate for "same scenario, any shard count".
func (r *Report) Fingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		mix(r.Excl[p].Fingerprint())
		mix(r.Crit[p].Fingerprint())
	}
	for _, n := range slices.Sorted(maps.Keys(r.Roots)) {
		mixs(n)
		mix(r.Roots[n].Fingerprint())
	}
	for _, s := range slices.Sorted(maps.Keys(r.Folded)) {
		mixs(s)
		mix(uint64(r.Folded[s]))
	}
	mix(r.Trees)
	return h
}
