// Package faults is the deterministic fault-injection plan of the testbed:
// a seed-driven description of which deployment operations fail, which
// started instances crash before their port ever opens, when whole clusters
// are unreachable, and how much loss/latency the network links add.
//
// The plan is consulted by the cluster implementations (docker, kube,
// serverless) at the entry of each fig. 4 phase and by simnet links, so any
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
	"time"

	"transparentedge/internal/obs"
)

// Injected-fault sentinels; cluster errors wrap these so consumers can
// errors.Is on the fault class.
var (
	ErrInjectedPull      = errors.New("faults: injected pull failure")
	ErrInjectedCreate    = errors.New("faults: injected create failure")
	ErrInjectedScaleUp   = errors.New("faults: injected scale-up failure")
	ErrInjectedScaleDown = errors.New("faults: injected scale-down failure")
	ErrOutage            = errors.New("faults: cluster outage")
)

// Window is a half-open interval [From, To) of simulated time, used for
// cluster outages.
type Window struct {
	From, To time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.From && t < w.To }

// ClusterSpec describes the faults of one cluster. Probabilities are per
// attempt in [0,1); the FailFirst/CrashFirst counters force the first N
// attempts to fail deterministically (exact-count test plans), applied
// before the probabilistic draw.
type ClusterSpec struct {
	// PullFailProb / CreateFailProb / ScaleUpFailProb fail the respective
	// fig. 4 phase at entry (registry outage, API error, scheduler error).
	PullFailProb    float64
	CreateFailProb  float64
	ScaleUpFailProb float64
	// CrashProb makes a successful scale-up return an instance whose port
	// never opens: the process crashes right after start, before readiness.
	CrashProb float64
	// FailFirstPulls etc. deterministically fail the first N attempts of
	// the operation (then the probabilistic model takes over).
	FailFirstPulls    int
	FailFirstCreates  int
	FailFirstScaleUps int
	CrashFirstStarts  int
	// Outages are intervals of simulated time during which every operation
	// on the cluster fails with ErrOutage.
	Outages []Window
}

// Enabled reports whether the spec injects anything at all.
func (s ClusterSpec) Enabled() bool {
	return s.PullFailProb > 0 || s.CreateFailProb > 0 || s.ScaleUpFailProb > 0 ||
		s.CrashProb > 0 || s.FailFirstPulls > 0 || s.FailFirstCreates > 0 ||
		s.FailFirstScaleUps > 0 || s.CrashFirstStarts > 0 || len(s.Outages) > 0
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
	// LinkLoss adds packet-loss probability to every network link;
	// LinkExtraLatency adds one-way propagation delay.
	LinkLoss         float64
	LinkExtraLatency time.Duration
}

// Enabled reports whether the plan injects any cluster or link fault.
func (s Spec) Enabled() bool {
	if s.Default.Enabled() || s.LinkLoss > 0 || s.LinkExtraLatency > 0 {
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
	reg       *obs.Registry
}

// SetObs registers a per-cluster faults_injected_total counter for every
// injector the plan hands out (existing injectors are backfilled). The
// counter only counts — fault decisions stay pure functions of the plan
// seed, so attaching a registry never changes which faults fire.
func (p *Plan) SetObs(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.reg = reg
	for name, in := range p.injectors {
		in.fired = reg.Counter(`faults_injected_total{cluster="` + name + `"}`)
	}
}

// NewPlan builds a plan from a spec.
func NewPlan(spec Spec) *Plan {
	return &Plan{spec: spec, injectors: make(map[string]*Injector)}
}

// Spec returns the plan's spec.
func (p *Plan) Spec() Spec { return p.spec }

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
	if p.reg != nil {
		in.fired = p.reg.Counter(`faults_injected_total{cluster="` + clusterName + `"}`)
	}
	p.injectors[clusterName] = in
	return in
}

// Counts aggregates injected-fault totals across every injector.
func (p *Plan) Counts() (c Counts) {
	for _, in := range p.injectors {
		ic := in.Counts()
		c.Pulls += ic.Pulls
		c.Creates += ic.Creates
		c.ScaleUps += ic.ScaleUps
		c.Crashes += ic.Crashes
		c.Outages += ic.Outages
	}
	return c
}

// Counts tallies faults actually injected (not merely configured), so tests
// can assert DeployRecord attempts against the executed plan.
type Counts struct {
	Pulls    int
	Creates  int
	ScaleUps int
	Crashes  int
	Outages  int
}

// Total returns the sum of all injected faults.
func (c Counts) Total() int { return c.Pulls + c.Creates + c.ScaleUps + c.Crashes + c.Outages }

// Injector makes the fault decisions of one cluster. A nil *Injector is
// valid and injects nothing (zero cost when faults are off).
type Injector struct {
	cluster     string
	spec        ClusterSpec
	seed        uint64
	clusterHash uint64
	// per-operation attempt counters (inputs to the hash, so decision
	// sequences are independent of interleaving with other clusters).
	pulls, creates, scaleUps, starts uint64
	counts                           Counts
	// fired counts every injected fault (nil without Plan.SetObs).
	fired *obs.Counter
}

// Operation codes mixed into the decision hash.
const (
	opPull uint64 = iota + 1
	opCreate
	opScaleUp
	opCrash
)

// Counts returns the injector's injected-fault tally so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// Cluster returns the cluster name the injector belongs to.
func (in *Injector) Cluster() string {
	if in == nil {
		return ""
	}
	return in.cluster
}

// PullError decides whether the next Pull attempt fails. now is the current
// simulated time (for outage windows).
func (in *Injector) PullError(now time.Duration) error {
	if in == nil {
		return nil
	}
	if err := in.outage(now); err != nil {
		return err
	}
	n := in.pulls
	in.pulls++
	if int64(n) < int64(in.spec.FailFirstPulls) || in.roll(opPull, n) < in.spec.PullFailProb {
		in.counts.Pulls++
		in.fired.Inc()
		return fmt.Errorf("%w (cluster %s, attempt %d)", ErrInjectedPull, in.cluster, n+1)
	}
	return nil
}

// CreateError decides whether the next Create attempt fails.
func (in *Injector) CreateError(now time.Duration) error {
	if in == nil {
		return nil
	}
	if err := in.outage(now); err != nil {
		return err
	}
	n := in.creates
	in.creates++
	if int64(n) < int64(in.spec.FailFirstCreates) || in.roll(opCreate, n) < in.spec.CreateFailProb {
		in.counts.Creates++
		in.fired.Inc()
		return fmt.Errorf("%w (cluster %s, attempt %d)", ErrInjectedCreate, in.cluster, n+1)
	}
	return nil
}

// ScaleUpError decides whether the next ScaleUp attempt fails outright.
func (in *Injector) ScaleUpError(now time.Duration) error {
	if in == nil {
		return nil
	}
	if err := in.outage(now); err != nil {
		return err
	}
	n := in.scaleUps
	in.scaleUps++
	if int64(n) < int64(in.spec.FailFirstScaleUps) || in.roll(opScaleUp, n) < in.spec.ScaleUpFailProb {
		in.counts.ScaleUps++
		in.fired.Inc()
		return fmt.Errorf("%w (cluster %s, attempt %d)", ErrInjectedScaleUp, in.cluster, n+1)
	}
	return nil
}

// ScaleDownError decides whether the next ScaleDown attempt fails (only
// outage windows apply: a partitioned cluster cannot scale down either).
func (in *Injector) ScaleDownError(now time.Duration) error {
	if in == nil {
		return nil
	}
	if err := in.outage(now); err != nil {
		return fmt.Errorf("%w: %w", ErrInjectedScaleDown, err)
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
		in.counts.Crashes++
		in.fired.Inc()
		return true
	}
	return false
}

// outage returns ErrOutage when now falls inside a configured window.
func (in *Injector) outage(now time.Duration) error {
	for _, w := range in.spec.Outages {
		if w.Contains(now) {
			in.counts.Outages++
			in.fired.Inc()
			return fmt.Errorf("%w (cluster %s at %v)", ErrOutage, in.cluster, now)
		}
	}
	return nil
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
