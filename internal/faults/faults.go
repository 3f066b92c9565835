// Package faults is the deterministic fault-injection plan of the testbed:
// a seed-driven description of which deployment operations fail and which
// started instances crash before their port ever opens.
//
// The plan is consulted by the cluster implementations (docker, kube,
// serverless) at the entry of the pull and scale-up phases of fig. 4, so any
// experiment can run under injected faults without changing its own code.
// Two properties make the results bit-reproducible:
//
//   - decisions are pure functions of (plan seed, cluster name, operation,
//     per-operation attempt counter), computed with a splitmix64-style hash
//     — the simulation kernel's RNG is never touched, so a fault plan
//     cannot perturb the random draws of an otherwise identical run;
//   - a cluster with no configured faults gets a nil *Injector, whose
//     methods are nil-receiver no-ops — the fault layer costs nothing and
//     changes nothing when switched off.
package faults

import (
	"errors"
	"fmt"

	"transparentedge/internal/obs"
)

// Injected-fault sentinels; cluster errors wrap these so consumers can
// errors.Is on the fault class.
var (
	ErrInjectedPull    = errors.New("faults: injected pull failure")
	ErrInjectedScaleUp = errors.New("faults: injected scale-up failure")
)

// ClusterSpec describes the faults of one cluster. Probabilities are per
// attempt in [0,1); the FailFirst/CrashFirst counters force the first N
// attempts to fail deterministically (exact-count test plans), applied
// before the probabilistic draw.
type ClusterSpec struct {
	// PullFailProb / ScaleUpFailProb fail the respective fig. 4 phase at
	// entry (registry outage, scheduler error).
	PullFailProb    float64
	ScaleUpFailProb float64
	// CrashProb makes a successful scale-up return an instance whose port
	// never opens: the process crashes right after start, before readiness.
	CrashProb float64
	// FailFirstPulls etc. deterministically fail the first N attempts of
	// the operation (then the probabilistic model takes over).
	FailFirstPulls    int
	FailFirstScaleUps int
	CrashFirstStarts  int
}

// Enabled reports whether the spec injects anything at all.
func (s ClusterSpec) Enabled() bool {
	return s.PullFailProb > 0 || s.ScaleUpFailProb > 0 || s.CrashProb > 0 ||
		s.FailFirstPulls > 0 || s.FailFirstScaleUps > 0 || s.CrashFirstStarts > 0
}

// Spec is a whole-testbed fault plan.
type Spec struct {
	// Seed drives every probabilistic decision (independent of the
	// simulation seed).
	Seed int64
	// Default applies to every cluster without an explicit entry.
	Default ClusterSpec
	// Clusters overrides Default per cluster name.
	Clusters map[string]ClusterSpec
}

// Enabled reports whether the plan injects any fault.
func (s Spec) Enabled() bool {
	if s.Default.Enabled() {
		return true
	}
	for _, cs := range s.Clusters {
		if cs.Enabled() {
			return true
		}
	}
	return false
}

// forCluster resolves the effective spec of one cluster.
func (s Spec) forCluster(name string) ClusterSpec {
	if cs, ok := s.Clusters[name]; ok {
		return cs
	}
	return s.Default
}

// Plan hands out per-cluster injectors for a Spec. Injectors are memoized,
// so the attempt counters persist across For calls.
type Plan struct {
	spec      Spec
	injectors map[string]*Injector
}

// SetObs registers the reader of a per-cluster faults_injected_total series
// for every injector the plan has handed out by the time the registry is
// read. Counting never decides anything — fault decisions stay pure
// functions of the plan seed, so attaching a registry never changes which
// faults fire.
func (p *Plan) SetObs(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.Register(func(add func(obs.Sample)) {
		for name, in := range p.injectors {
			add(obs.Sample{Name: `faults_injected_total{cluster="` + name + `"}`, Kind: "counter", Value: float64(in.fired)})
		}
	})
}

// NewPlan builds a plan from a spec.
func NewPlan(spec Spec) *Plan {
	return &Plan{spec: spec, injectors: make(map[string]*Injector)}
}

// For returns the injector of the named cluster, or nil when the cluster's
// effective spec injects nothing — the nil injector is the documented
// zero-cost off switch (all methods are nil-receiver no-ops).
func (p *Plan) For(clusterName string) *Injector {
	if in, ok := p.injectors[clusterName]; ok {
		return in
	}
	cs := p.spec.forCluster(clusterName)
	if !cs.Enabled() {
		return nil
	}
	in := &Injector{
		cluster:     clusterName,
		spec:        cs,
		seed:        uint64(p.spec.Seed),
		clusterHash: fnv1a(clusterName),
	}
	p.injectors[clusterName] = in
	return in
}

// Injector makes the fault decisions of one cluster. A nil *Injector is
// valid and injects nothing (zero cost when faults are off).
type Injector struct {
	cluster     string
	spec        ClusterSpec
	seed        uint64
	clusterHash uint64
	// per-operation attempt counters (inputs to the hash, so decision
	// sequences are independent of interleaving with other clusters).
	pulls, scaleUps, starts uint64
	// fired counts every injected fault.
	fired uint64
}

// Operation codes mixed into the decision hash. Code 2 stays unused:
// renumbering would move every recorded fault decision.
const (
	opPull uint64 = iota + 1
	_
	opScaleUp
	opCrash
)

// PullError decides whether the next Pull attempt fails.
func (in *Injector) PullError() error {
	if in == nil {
		return nil
	}
	n := in.pulls
	in.pulls++
	if int64(n) < int64(in.spec.FailFirstPulls) || in.roll(opPull, n) < in.spec.PullFailProb {
		in.fired++
		return fmt.Errorf("%w (cluster %s, attempt %d)", ErrInjectedPull, in.cluster, n+1)
	}
	return nil
}

// ScaleUpError decides whether the next ScaleUp attempt fails outright.
func (in *Injector) ScaleUpError() error {
	if in == nil {
		return nil
	}
	n := in.scaleUps
	in.scaleUps++
	if int64(n) < int64(in.spec.FailFirstScaleUps) || in.roll(opScaleUp, n) < in.spec.ScaleUpFailProb {
		in.fired++
		return fmt.Errorf("%w (cluster %s, attempt %d)", ErrInjectedScaleUp, in.cluster, n+1)
	}
	return nil
}

// CrashAfterStart decides whether an otherwise successful scale-up yields
// an instance that crashes before its port opens.
func (in *Injector) CrashAfterStart() bool {
	if in == nil {
		return false
	}
	n := in.starts
	in.starts++
	if int64(n) < int64(in.spec.CrashFirstStarts) || in.roll(opCrash, n) < in.spec.CrashProb {
		in.fired++
		return true
	}
	return false
}

// roll maps (seed, cluster, op, attempt) to [0,1) with a splitmix64-style
// finalizer. Independent of the kernel RNG and of call interleaving.
func (in *Injector) roll(op, attempt uint64) float64 {
	x := in.seed
	x ^= in.clusterHash
	x ^= op * 0x9E3779B97F4A7C15
	x ^= (attempt + 1) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// fnv1a hashes a string (FNV-1a 64).
func fnv1a(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
