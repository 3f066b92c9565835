package experiments

import (
	"fmt"
	"testing"

	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
)

// The tentpole guarantee: partitioning the fixed multi-region topology onto
// any number of kernels is invisible in the results. Serial (-shards 1) and
// sharded runs must produce bit-identical fingerprints.
func TestReplayShardParitySerialVsSharded(t *testing.T) {
	const seed, requests = 7, 640
	serial := must(ReplayShard(seed, requests, 1, nil))
	served(t, "serial", serial.PointResult)
	for _, shards := range []int{2, 4, 8} {
		got := must(ReplayShard(seed, requests, shards, nil))
		served(t, fmt.Sprintf("%d shards", shards), got.PointResult)
		if got.Shards != shards {
			t.Fatalf("shards = %d, want %d", got.Shards, shards)
		}
		if got.Fingerprint() != serial.Fingerprint() {
			t.Errorf("shards=%d fingerprint %016x != serial %016x",
				shards, got.Fingerprint(), serial.Fingerprint())
		}
		if got.Totals.Fingerprint() != serial.Totals.Fingerprint() {
			t.Errorf("shards=%d merged histogram diverges from serial", shards)
		}
		for d, n := range got.PerRegionRequests {
			if n != serial.PerRegionRequests[d] {
				t.Errorf("shards=%d region %d saw %d requests, serial saw %d",
					shards, d, n, serial.PerRegionRequests[d])
			}
		}
	}
}

// Observability must be passive: tracing and counting a run cannot change
// its results, and the traces/counters themselves must be bit-identical at
// every shard count (spans are drained in region order).
func TestReplayShardObsParity(t *testing.T) {
	const seed, requests = 11, 320
	bare := must(ReplayShard(seed, requests, 4, nil))

	run := func(shards int) ReplayShardResult {
		tr := obs.NewTracer(1 << 16)
		reg := obs.NewRegistry()
		return must(ReplayShard(seed, requests, shards, nil, WithTrace(tr), WithCounters(reg)))
	}
	traced := run(4)
	if traced.Fingerprint() != bare.Fingerprint() {
		t.Errorf("tracing changed the result: %016x != %016x",
			traced.Fingerprint(), bare.Fingerprint())
	}
	if traced.Spans == 0 {
		t.Fatal("traced run emitted no spans")
	}
	serial := run(1)
	if serial.SpanDigest != traced.SpanDigest {
		t.Errorf("span digest diverges: shards=1 %016x shards=4 %016x",
			serial.SpanDigest, traced.SpanDigest)
	}
	if serial.Spans != traced.Spans {
		t.Errorf("span count diverges: shards=1 %d shards=4 %d", serial.Spans, traced.Spans)
	}
	if len(serial.Counters) == 0 {
		t.Fatal("counted run produced no counters")
	}
	for name, v := range serial.Counters {
		if traced.Counters[name] != v {
			t.Errorf("counter %s diverges: shards=1 %v shards=4 %v", name, v, traced.Counters[name])
		}
	}
	for name := range traced.Counters {
		if _, ok := serial.Counters[name]; !ok {
			t.Errorf("counter %s present at shards=4 only", name)
		}
	}
}

// Fault injection keys on per-region cluster and link names — never on
// scheduling — so a faulty scenario stays bit-identical across shard
// counts, including deterministic link loss on the cross-shard uplinks.
func TestReplayShardParityUnderFaults(t *testing.T) {
	const seed, requests = 3, 320
	spec := &faults.Spec{
		Seed: 42,
		Default: faults.ClusterSpec{
			PullFailProb:    0.2,
			ScaleUpFailProb: 0.1,
			CrashProb:       0.05,
		},
		LinkLoss: 0.01,
	}
	serial := must(ReplayShard(seed, requests, 1, spec))
	faulty := must(ReplayShard(seed, requests, 4, spec))
	if serial.Fingerprint() != faulty.Fingerprint() {
		t.Fatalf("fault plan breaks shard parity: shards=1 %016x shards=4 %016x",
			serial.Fingerprint(), faulty.Fingerprint())
	}
	clean := must(ReplayShard(seed, requests, 4, nil))
	if clean.Fingerprint() == faulty.Fingerprint() {
		t.Fatal("fault plan had no observable effect (injection not wired?)")
	}
}

// The same sharded run twice in one process must reproduce itself — no
// global state leaks across region builds or window workers.
func TestReplayShardDeterministicRepeat(t *testing.T) {
	a := must(ReplayShard(5, 160, 4, nil))
	b := must(ReplayShard(5, 160, 4, nil))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("repeat run diverged: %016x != %016x", a.Fingerprint(), b.Fingerprint())
	}
}
