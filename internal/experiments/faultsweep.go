package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/faults"
)

// faultSweepVariants builds the scale-faults variant set: the same seeded
// cold two-cluster trace replayed under increasing injected fault rates. A
// rate r injects a pull failure with probability r, a scale-up failure with
// r/2, and a crash-after-start (port never opens) with r/4, per attempt,
// decided by the deterministic fault plan. Rate 0 is the fault-free
// baseline: its Faults pointer stays nil, so it exercises the zero-cost
// path and must fingerprint bit-identically to a sweep without fault
// support at all.
func faultSweepVariants(seed int64, requests int, rates []float64) []pointSpec {
	vs := make([]pointSpec, 0, len(rates))
	for _, r := range rates {
		v := pointSpec{
			Name:     fmt.Sprintf("pullfail=%d%%", int(r*100+0.5)),
			Seed:     seed,
			Requests: requests,
			Clusters: 2,
			Cold:     true,
			// Hardening: bounded probes and retries so every injected
			// failure resolves — by retry, next-best cluster, or cloud
			// fallback — instead of hanging a deployment forever.
			DeployRetries:  3,
			ProbeMaxWait:   10 * time.Second,
			RequestTimeout: 30 * time.Second,
		}
		if r > 0 {
			v.Faults = &faults.Spec{
				Seed: seed,
				Default: faults.ClusterSpec{
					PullFailProb:    r,
					ScaleUpFailProb: r / 2,
					CrashProb:       r / 4,
				},
			}
		}
		vs = append(vs, v)
	}
	return vs
}

// faultSweepResult is a sweepResult whose rendering surfaces the fault-path
// outputs (attempts, retries, failures, fallbacks).
type faultSweepResult struct {
	sweepResult
}

var faultSweepColumns = []column[variantResult]{
	{"variant", "", "%-16s", func(v variantResult) any { return v.Variant.Name }},
	{"requests", "requests", "%8d", func(v variantResult) any { return v.Requests }},
	{"errors", "errors", "%7d", func(v variantResult) any { return v.Errors }},
	{"", "unfinished", "", func(v variantResult) any { return v.Unfinished }},
	{"deploys", "deployments", "%8d", func(v variantResult) any { return v.Deployments }},
	{"attempts", "deploy_attempts", "%9d", func(v variantResult) any { return v.DeployAttempts }},
	{"retries", "deploy_retries", "%8d", func(v variantResult) any { return v.DeployRetries }},
	{"failed", "deploy_failures", "%7d", func(v variantResult) any { return v.DeployFailures }},
	{"fallbacks", "fallback_deployments", "%9d", func(v variantResult) any { return v.FallbackDeploys }},
	{"cloud", "cloud_fallbacks", "%7d", func(v variantResult) any { return v.CloudFallbacks }},
	{"median", "median_ms", "%10v", func(v variantResult) any { return v.Median }},
	{"", "p95_ms", "", func(v variantResult) any { return v.P95 }},
	{"", "wall_ms", "", func(v variantResult) any { return v.Wall }},
	{"", "fingerprint", "", func(v variantResult) any { return digest(v.Fingerprint()) }},
}

// String renders the fault sweep as a table.
func (r faultSweepResult) String() string {
	var b strings.Builder
	r.variantTable(&b, "fault sweep", faultSweepColumns)
	r.variantCounters(&b)
	return b.String()
}

// JSON returns one uniform entry per fault variant.
func (r faultSweepResult) JSON() []JSONResult {
	return r.variantJSON("scale-faults", faultSweepColumns)
}
