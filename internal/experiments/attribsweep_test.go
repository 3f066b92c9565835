package experiments

import (
	"slices"
	"testing"
	"time"

	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
)

// TestAttribSweepShapeAndParity runs the sweep small and checks its shape
// and the PR-10 acceptance gates: attribution-on replays fingerprint
// byte-identical to attribution-off at shards {1,2,4,8}, and the
// attribution report itself is shard-count-independent.
func TestAttribSweepShapeAndParity(t *testing.T) {
	r := must(AttribSweep(11, 160))
	if want := len(SteerBackends) * len(attribSweepClients); len(r.Points) != want {
		t.Fatalf("points = %d, want %d", len(r.Points), want)
	}
	for _, p := range r.Points {
		if p.Trees == 0 || p.Spans == 0 {
			t.Errorf("%s c=%d: trees/spans = %d/%d, want > 0", p.Backend, p.Clients, p.Trees, p.Spans)
		}
		if p.DispatchP99 <= 0 {
			t.Errorf("%s c=%d: dispatch p99 = %v, want > 0", p.Backend, p.Clients, p.DispatchP99)
		}
		if len(p.Phases) == 0 {
			t.Errorf("%s c=%d: no phases attributed", p.Backend, p.Clients)
		}
	}
	if len(r.Parity) != len(attribParityShards) {
		t.Fatalf("parity gates = %d, want %d", len(r.Parity), len(attribParityShards))
	}
	for _, pr := range r.Parity {
		if !pr.Match {
			t.Errorf("shards=%d: attribution-on fingerprint != attribution-off", pr.Shards)
		}
		if pr.ReportFingerprint != r.Parity[0].ReportFingerprint {
			t.Errorf("attribution report depends on shard count: shards=%d %016x != shards=%d %016x",
				pr.Shards, pr.ReportFingerprint, r.Parity[0].Shards, r.Parity[0].ReportFingerprint)
		}
	}
}

// requireSumProperty asserts the exact-decomposition invariant on a
// collector that saw a full run.
func requireSumProperty(t *testing.T, col *attrib.Collector, workloadName string) {
	t.Helper()
	rep := col.Report()
	if rep.Trees == 0 {
		t.Fatalf("%s: no trees attributed", workloadName)
	}
	excl, roots, ok := phaseSumCheck(rep)
	if !ok {
		t.Errorf("%s: exclusive sum %v != root-duration sum %v (%d trees, %d dropped spans)",
			workloadName, excl, roots, rep.Trees, rep.DroppedSpans)
	}
}

// TestAttribSumPropertyReplay checks the decomposition invariant on the
// plain sharded replay.
func TestAttribSumPropertyReplay(t *testing.T) {
	col := attrib.New(attrib.Options{})
	served(t, "replay", must(ReplayShard(7, 320, 2, nil, WithAttrib(col))).PointResult)
	requireSumProperty(t, col, "replay")
}

// TestAttribSumPropertyFaultPlan checks the invariant under the
// deterministic fault plan: error spans, retries, and fallback paths must
// decompose exactly too.
func TestAttribSumPropertyFaultPlan(t *testing.T) {
	spec := &faults.Spec{
		Seed: 42,
		Default: faults.ClusterSpec{
			PullFailProb:    0.2,
			ScaleUpFailProb: 0.1,
			CrashProb:       0.05,
		},
		LinkLoss: 0.01,
	}
	col := attrib.New(attrib.Options{})
	must(ReplayShard(3, 320, 4, spec, WithAttrib(col)))
	requireSumProperty(t, col, "fault-plan")
}

// TestAttribSumPropertyMobility checks the invariant on the mobility
// workload — handover trees with re-anchor children included — and that
// the re-anchor phase actually shows up.
func TestAttribSumPropertyMobility(t *testing.T) {
	col := attrib.New(attrib.Options{})
	s := runOpts{steer: "srv6", attrib: col}.point(5, 240)
	s.GNBs, s.Dwell = MobilityCells, 5*time.Second
	run, err := runPoint(s)
	if err != nil {
		t.Fatal(err)
	}
	served(t, "mobility", run.PointResult)
	requireSumProperty(t, col, "mobility")
	rep := col.Report()
	if run.tb.Ctrl.Stats.HandoverReAnchors > 0 {
		if rep.Roots["handover"] == nil || rep.Roots["handover"].Len() == 0 {
			t.Error("re-anchors happened but no handover trees were attributed")
		}
		if rep.Excl[attrib.PhaseReAnchor].Len() == 0 {
			t.Error("re-anchor phase never observed")
		}
	}
}

// TestEmittedRootsAreRootNames: a traced cold run that deploys the best
// location behind the fast one, plus a mobility run, emit only the roots
// attrib.RootNames declares, and every one of them — the set ParseSLO
// accepts is the set an objective can fire on.
func TestEmittedRootsAreRootNames(t *testing.T) {
	cold := runOpts{attrib: attrib.New(attrib.Options{})}.point(3, 320)
	cold.Cold, cold.Clusters, cold.Scheduler = true, 2, "no-wait"
	mob := runOpts{steer: "srv6", attrib: attrib.New(attrib.Options{})}.point(5, 240)
	mob.GNBs, mob.Dwell = MobilityCells, 5*time.Second
	seen := map[string]bool{}
	for _, s := range []pointSpec{cold, mob} {
		if _, err := runPoint(s); err != nil {
			t.Fatal(err)
		}
		for name := range s.attrib.Report().Roots {
			if !slices.Contains(attrib.RootNames, name) {
				t.Errorf("root %q is not in attrib.RootNames %v", name, attrib.RootNames)
			}
			seen[name] = true
		}
	}
	for _, name := range attrib.RootNames {
		if !seen[name] {
			t.Errorf("no run emitted a %q root", name)
		}
	}
}

// TestWithAttribWithoutTraceMatchesTraced checks the internal-tracer path:
// attribution without a caller tracer must see the same span stream a
// traced run sees (same report fingerprint).
func TestWithAttribWithoutTraceMatchesTraced(t *testing.T) {
	alone := attrib.New(attrib.Options{})
	must(ReplayScale(9, 160, WithAttrib(alone)))

	chained := attrib.New(attrib.Options{})
	must(ReplayScale(9, 160, WithAttrib(chained), WithTrace(obs.NewTracer(0))))

	if a, b := alone.Report().Fingerprint(), chained.Report().Fingerprint(); a != b {
		t.Fatalf("attrib-only report %016x != attrib+trace report %016x", a, b)
	}
}

// TestKernelStatsSurfaced checks the kernel/shard-group introspection
// reaches the results and the uniform JSON shape.
func TestKernelStatsSurfaced(t *testing.T) {
	r := must(ReplayScale(13, 160))
	if r.Kernel.Events == 0 || r.Kernel.Scheduled < r.Kernel.Events {
		t.Errorf("kernel stats = %+v, want events > 0 and scheduled >= events", r.Kernel)
	}
	j := r.JSON()
	if j.Metrics["kernel_events"] != float64(r.Kernel.Events) {
		t.Errorf("kernel_events metric = %v, want %d", j.Metrics["kernel_events"], r.Kernel.Events)
	}

	if r.Kernel.ProcStarts == 0 || r.Kernel.ProcSwitches < r.Kernel.ProcStarts {
		t.Errorf("kernel stats = %+v, want procs started and at least one wake-up each", r.Kernel)
	}
	for key, want := range map[string]float64{
		"kernel_proc_starts":   float64(r.Kernel.ProcStarts),
		"kernel_proc_switches": float64(r.Kernel.ProcSwitches),
		"kernel_live_procs":    float64(r.Kernel.LiveProcs),
	} {
		if got, ok := j.Metrics[key]; !ok || got != want {
			t.Errorf("%s metric = %v (present %v), want %v", key, got, ok, want)
		}
	}

	rs := must(ReplayShard(13, 160, 4, nil))
	if rs.Group.Windows == 0 || len(rs.Group.Shards) != 4 {
		t.Errorf("group stats = windows %d shards %d, want > 0 and 4", rs.Group.Windows, len(rs.Group.Shards))
	}
	js := rs.JSON()
	if js.Metrics["group_windows"] != float64(rs.Group.Windows) {
		t.Errorf("group_windows metric = %v, want %d", js.Metrics["group_windows"], rs.Group.Windows)
	}
	if js.Metrics["kernel_events"] <= 0 || js.Metrics["kernel_proc_switches"] <= 0 {
		t.Error("scale-shard JSON missing summed kernel_events / kernel_proc_switches")
	}
}

// phaseSumCheck verifies the exact-decomposition property on a finished
// collector: the exclusive time attributed across all phases equals the
// summed durations of every finalized root. Shared by the property tests
// and callers that want a runtime self-check.
func phaseSumCheck(rep *attrib.Report) (excl, roots time.Duration, ok bool) {
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		excl += rep.Excl[p].Sum()
	}
	rootNames := make([]string, 0, len(rep.Roots))
	for name := range rep.Roots {
		rootNames = append(rootNames, name)
	}
	for _, name := range rootNames {
		roots += rep.Roots[name].Sum()
	}
	return excl, roots, excl == roots
}
