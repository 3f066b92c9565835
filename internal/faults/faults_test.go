package faults

import (
	"errors"
	"math"
	"testing"

	"transparentedge/internal/obs"
)

// injected attaches a registry to p and returns a reader of the cluster's
// faults_injected_total series.
func injected(p *Plan, cluster string) func() float64 {
	reg := obs.NewRegistry()
	p.SetObs(reg)
	return func() float64 { return reg.Map()[`faults_injected_total{cluster="`+cluster+`"}`] }
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if err := in.PullError(); err != nil {
		t.Fatalf("nil PullError = %v", err)
	}
	if err := in.ScaleUpError(); err != nil {
		t.Fatalf("nil ScaleUpError = %v", err)
	}
	if in.CrashAfterStart() {
		t.Fatal("nil CrashAfterStart = true")
	}
}

func TestPlanForFaultFreeClusterIsNil(t *testing.T) {
	p := NewPlan(Spec{Seed: 7})
	if in := p.For("egs-docker"); in != nil {
		t.Fatalf("For on empty spec = %v, want nil", in)
	}
	p = NewPlan(Spec{
		Seed:     7,
		Clusters: map[string]ClusterSpec{"bad": {PullFailProb: 1}},
	})
	if in := p.For("good"); in != nil {
		t.Fatalf("For(good) = %v, want nil (only bad is faulty)", in)
	}
	if in := p.For("bad"); in == nil {
		t.Fatal("For(bad) = nil, want injector")
	}
}

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("empty spec Enabled")
	}
	cases := []Spec{
		{Default: ClusterSpec{PullFailProb: 0.1}},
		{Default: ClusterSpec{CrashFirstStarts: 1}},
		{Clusters: map[string]ClusterSpec{"x": {ScaleUpFailProb: 0.5}}},
	}
	for i, s := range cases {
		if !s.Enabled() {
			t.Errorf("case %d: Enabled = false", i)
		}
	}
}

func TestFailFirstCountsAreExact(t *testing.T) {
	p := NewPlan(Spec{Seed: 1, Default: ClusterSpec{
		FailFirstPulls:    3,
		FailFirstScaleUps: 1,
		CrashFirstStarts:  2,
	}})
	fired := injected(p, "c")
	in := p.For("c")
	for i := 0; i < 3; i++ {
		if err := in.PullError(); !errors.Is(err, ErrInjectedPull) {
			t.Fatalf("pull %d: %v, want ErrInjectedPull", i, err)
		}
	}
	if err := in.PullError(); err != nil {
		t.Fatalf("pull 4: %v, want nil", err)
	}
	if err := in.ScaleUpError(); !errors.Is(err, ErrInjectedScaleUp) {
		t.Fatalf("scale-up 1: %v", err)
	}
	if err := in.ScaleUpError(); err != nil {
		t.Fatalf("scale-up 2: %v, want nil", err)
	}
	if !in.CrashAfterStart() || !in.CrashAfterStart() {
		t.Fatal("first two starts must crash")
	}
	if in.CrashAfterStart() {
		t.Fatal("third start crashed (CrashFirstStarts = 2)")
	}
	if got := fired(); got != 3+1+2 {
		t.Fatalf("faults_injected_total = %v, want 6", got)
	}
}

// TestDecisionsAreDeterministic: two plans with the same spec produce the
// same decision sequence, independent of interleaving with other clusters.
func TestDecisionsAreDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Default: ClusterSpec{PullFailProb: 0.3, CrashProb: 0.2}}
	seq := func(interleave bool) ([]bool, []bool) {
		p := NewPlan(spec)
		a, b := p.For("alpha"), p.For("beta")
		var pulls, crashes []bool
		for i := 0; i < 200; i++ {
			if interleave {
				// beta draws interleaved with alpha must not change alpha.
				b.PullError()
				b.CrashAfterStart()
			}
			pulls = append(pulls, a.PullError() != nil)
			crashes = append(crashes, a.CrashAfterStart())
		}
		return pulls, crashes
	}
	p1, c1 := seq(false)
	p2, c2 := seq(true)
	for i := range p1 {
		if p1[i] != p2[i] || c1[i] != c2[i] {
			t.Fatalf("decision %d differs under interleaving: pull %v/%v crash %v/%v",
				i, p1[i], p2[i], c1[i], c2[i])
		}
	}
}

// TestProbabilityRoughlyMatchesRate: the hash-based draw behaves like a
// uniform sample at the configured rate.
func TestProbabilityRoughlyMatchesRate(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		p := NewPlan(Spec{Seed: 1234, Default: ClusterSpec{PullFailProb: rate}})
		in := p.For("c")
		fails := 0
		for i := 0; i < n; i++ {
			if in.PullError() != nil {
				fails++
			}
		}
		got := float64(fails) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %.1f: observed %.3f", rate, got)
		}
	}
}

// TestDifferentSeedsDiffer: the seed actually matters.
func TestDifferentSeedsDiffer(t *testing.T) {
	draw := func(seed int64) []bool {
		in := NewPlan(Spec{Seed: seed, Default: ClusterSpec{PullFailProb: 0.5}}).For("c")
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.PullError() != nil
		}
		return out
	}
	a, b := draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 64-draw sequences")
	}
}

// TestPerClusterOverride: an explicit cluster entry replaces the default.
func TestPerClusterOverride(t *testing.T) {
	p := NewPlan(Spec{
		Seed:     9,
		Default:  ClusterSpec{FailFirstPulls: 1},
		Clusters: map[string]ClusterSpec{"clean": {}},
	})
	if in := p.For("clean"); in != nil {
		t.Fatal("override to empty spec must yield nil injector")
	}
	if err := p.For("other").PullError(); !errors.Is(err, ErrInjectedPull) {
		t.Fatalf("default cluster first pull: %v", err)
	}
}

// TestForIsMemoized: counters persist across For calls.
func TestForIsMemoized(t *testing.T) {
	p := NewPlan(Spec{Seed: 3, Default: ClusterSpec{FailFirstPulls: 1}})
	if err := p.For("c").PullError(); err == nil {
		t.Fatal("first pull must fail")
	}
	if err := p.For("c").PullError(); err != nil {
		t.Fatalf("second pull through a fresh For: %v, want nil (memoized counter)", err)
	}
}
