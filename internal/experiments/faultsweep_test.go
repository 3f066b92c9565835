package experiments

import (
	"testing"
	"time"

	"transparentedge/internal/faults"
)

// faultSweep runs the scale-faults variant set on procs workers, as edgesim
// scale-faults does.
func faultSweep(seed int64, requests int, rates []float64, procs int) faultSweepResult {
	return faultSweepResult{must(runSweep(Params{Procs: procs}, faultSweepVariants(seed, requests, rates)))}
}

// TestFaultSweepSmoke: the baseline variant stays fault-free while the
// faulty variant resolves every injected failure by retry or fallback — no
// hung deployments, no dropped requests.
func TestFaultSweepSmoke(t *testing.T) {
	res := faultSweep(7, 60, []float64{0, 0.5}, 2)
	if len(res.Variants) != 2 {
		t.Fatalf("variants = %d, want 2", len(res.Variants))
	}
	base, faulty := res.Variants[0], res.Variants[1]
	if base.Err != nil || faulty.Err != nil {
		t.Fatalf("variant errors: base=%v faulty=%v", base.Err, faulty.Err)
	}
	if base.DeployRetries != 0 || base.DeployFailures != 0 || base.CloudFallbacks != 0 {
		t.Errorf("baseline saw faults: retries=%d failures=%d cloud=%d",
			base.DeployRetries, base.DeployFailures, base.CloudFallbacks)
	}
	if base.DeployAttempts != base.Deployments {
		t.Errorf("baseline attempts = %d, want one per deployment (%d)",
			base.DeployAttempts, base.Deployments)
	}
	if faulty.DeployRetries == 0 {
		t.Error("faulty variant saw no retries despite a 50% injected rate")
	}
	// Attempt bookkeeping matches the injected plan: every retry is an
	// extra attempt on some record, so attempts == records + retries.
	records := faulty.Deployments + faulty.DeployFailures + faulty.FallbackDeploys
	if faulty.DeployAttempts != records+faulty.DeployRetries {
		t.Errorf("attempts = %d, want records(%d) + retries(%d)",
			faulty.DeployAttempts, records, faulty.DeployRetries)
	}
	// Graceful degradation: every request resolved (served at the edge, by
	// a fallback cluster, or by the cloud) within its timeout.
	if faulty.Requests != base.Requests {
		t.Errorf("faulty requests = %d, want %d", faulty.Requests, base.Requests)
	}
	if faulty.Errors == faulty.Requests {
		t.Error("every request errored: degradation ladder not engaging")
	}
}

// TestFaultSeedFingerprintParity: the same fault seed must yield
// bit-identical variant fingerprints whether the sweep runs serially or on
// a parallel worker pool.
func TestFaultSeedFingerprintParity(t *testing.T) {
	rates := []float64{0, 0.35}
	serial := faultSweep(3, 48, rates, 1)
	parallel := faultSweep(3, 48, rates, 4)
	for i := range serial.Variants {
		sf, pf := serial.Variants[i].Fingerprint(), parallel.Variants[i].Fingerprint()
		if sf != pf {
			t.Errorf("variant %s: serial fingerprint %x != parallel %x",
				serial.Variants[i].Variant.Name, sf, pf)
		}
		if serial.Variants[i].DeployAttempts != parallel.Variants[i].DeployAttempts {
			t.Errorf("variant %s: attempts differ serial=%d parallel=%d",
				serial.Variants[i].Variant.Name,
				serial.Variants[i].DeployAttempts, parallel.Variants[i].DeployAttempts)
		}
	}
}

// TestFaultSweepUsesSeedZero: the seed is used as given, so seed 0 replays
// its own trace and fault plan rather than seed 1's.
func TestFaultSweepUsesSeedZero(t *testing.T) {
	rates := []float64{0, 0.3}
	zero, one := faultSweep(0, 48, rates, 1), faultSweep(1, 48, rates, 1)
	for i, v := range zero.Variants {
		if v.Variant.Seed != 0 {
			t.Errorf("variant %s ran seed %d, want 0", v.Variant.Name, v.Variant.Seed)
		}
		if fp := v.Fingerprint(); fp == one.Variants[i].Fingerprint() {
			t.Errorf("variant %s: seeds 0 and 1 fingerprint alike (%x)", v.Variant.Name, fp)
		}
	}
}

// TestDisabledFaultsAreZeroCost: a variant with a present-but-disabled fault
// spec must be bit-identical to one with no fault spec at all — the
// injector hooks stay nil and never touch the kernel RNG or the clock.
func TestDisabledFaultsAreZeroCost(t *testing.T) {
	plain := pointSpec{Seed: 11, Requests: 48, Clusters: 2, Cold: true}
	disabled := plain
	disabled.Faults = &faults.Spec{Seed: 99} // non-nil but all-zero rates

	a, b := runVariant(plain), runVariant(disabled)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("variant errors: %v / %v", a.Err, b.Err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("disabled fault spec changed the fingerprint: %x != %x",
			a.Fingerprint(), b.Fingerprint())
	}
}

// TestFaultSweepJSONShape: scale-faults emits the uniform JSON shape with
// the fault metrics present.
func TestFaultSweepJSONShape(t *testing.T) {
	res := faultSweep(5, 32, []float64{0.4}, 1)
	js := res.JSON()
	if len(js) != 1 {
		t.Fatalf("JSON entries = %d, want 1", len(js))
	}
	if js[0].Experiment != "scale-faults" {
		t.Errorf("experiment = %q, want scale-faults", js[0].Experiment)
	}
	for _, key := range []string{"deploy_attempts", "deploy_retries", "deploy_failures",
		"fallback_deployments", "cloud_fallbacks", "fingerprint"} {
		if _, ok := js[0].Metrics[key]; !ok {
			t.Errorf("metric %q missing", key)
		}
	}
	if res.String() == "" {
		t.Error("empty table rendering")
	}
	if time.Duration(js[0].Metrics["wall_ms"]) < 0 {
		t.Error("negative wall time")
	}
}
