package experiments

import (
	"testing"
)

func paritySweepVariants() []SweepVariant {
	return []SweepVariant{
		{Name: "w1", Seed: 1, Requests: 400, Scheduler: "wait-nearest"},
		{Name: "n1", Seed: 1, Requests: 400, Scheduler: "no-wait"},
		{Name: "w2", Seed: 2, Requests: 400, Scheduler: "wait-nearest", Clusters: 2},
		{Name: "n2", Seed: 2, Requests: 400, Scheduler: "no-wait", Clusters: 2, LambdaScale: 2},
	}
}

func TestSweepParitySerialVsParallel(t *testing.T) {
	// Each variant runs on a private kernel, so a parallel sweep must
	// produce bit-identical per-variant metrics to a serial one.
	serial := must(Sweep{Variants: paritySweepVariants(), Procs: 1}.Run())
	parallel := must(Sweep{Variants: paritySweepVariants(), Procs: 4}.Run())
	if len(serial.Variants) != len(parallel.Variants) {
		t.Fatalf("variant count: serial %d parallel %d", len(serial.Variants), len(parallel.Variants))
	}
	total := 0
	for i := range serial.Variants {
		s, p := serial.Variants[i], parallel.Variants[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("variant %s failed: serial=%v parallel=%v", s.Variant.Label(), s.Err, p.Err)
		}
		if s.Fingerprint() != p.Fingerprint() {
			t.Errorf("variant %s: serial fingerprint %x != parallel %x",
				s.Variant.Label(), s.Fingerprint(), p.Fingerprint())
		}
		total += s.Requests
	}
	if serial.Merged.Fingerprint() != parallel.Merged.Fingerprint() {
		t.Error("merged histograms diverge between serial and parallel runs")
	}
	if got := serial.Merged.Len(); got != total-serial.totalErrors() {
		t.Errorf("merged Len = %d, want %d (sum of variant samples)", got, total-serial.totalErrors())
	}
}

// totalErrors sums failed requests across variants (errored requests record
// no latency sample).
func (r SweepResult) totalErrors() int {
	n := 0
	for _, v := range r.Variants {
		n += v.Errors
	}
	return n
}

func TestSweepDeterministicRepeat(t *testing.T) {
	// The same sweep run twice in the same process must reproduce itself
	// (no hidden global state leaks between testbeds).
	a := must(Sweep{Variants: paritySweepVariants()[:2], Procs: 2}.Run())
	b := must(Sweep{Variants: paritySweepVariants()[:2], Procs: 2}.Run())
	for i := range a.Variants {
		if a.Variants[i].Fingerprint() != b.Variants[i].Fingerprint() {
			t.Errorf("variant %d not reproducible across runs", i)
		}
	}
}

func TestSweepUnknownScheduler(t *testing.T) {
	res := must(Sweep{Variants: []SweepVariant{
		{Name: "bad", Seed: 1, Requests: 100, Scheduler: "nope"},
		{Name: "ok", Seed: 1, Requests: 100},
	}, Procs: 1}.Run())
	if res.Variants[0].Err == nil {
		t.Fatal("unknown scheduler must surface as a variant error")
	}
	if res.Variants[1].Err != nil {
		t.Fatalf("good variant failed: %v", res.Variants[1].Err)
	}
	if res.Merged.Len() == 0 {
		t.Fatal("merged result must still include the successful variant")
	}
}

func TestWaitingSweepShape(t *testing.T) {
	vs := WaitingSweep(3, 500)
	if len(vs) != 6 {
		t.Fatalf("WaitingSweep(3) = %d variants, want 6", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if v.Requests != 500 {
			t.Errorf("variant %s requests = %d", v.Name, v.Requests)
		}
		seen[v.Scheduler] = true
	}
	if !seen["wait-nearest"] || !seen["no-wait"] {
		t.Fatal("WaitingSweep must cover both waiting modes")
	}
}

func TestSweepJSONShape(t *testing.T) {
	res := must(Sweep{Variants: paritySweepVariants()[:1], Procs: 1}.Run())
	entries := res.JSON()
	if len(entries) != 2 {
		t.Fatalf("JSON entries = %d, want variant + merged", len(entries))
	}
	for _, e := range entries {
		if e.Experiment != "sweep" || e.Metrics == nil {
			t.Fatalf("malformed entry: %+v", e)
		}
	}
	if entries[len(entries)-1].Name != "merged" {
		t.Fatal("last JSON entry must be the merged aggregate")
	}
}
