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
	serial := must(replayShard(Params{Seed: seed, ReplayRequests: requests, Shards: 1}))
	served(t, "serial", serial.pointResult)
	for _, shards := range []int{2, 4, 8} {
		got := must(replayShard(Params{Seed: seed, ReplayRequests: requests, Shards: shards}))
		served(t, fmt.Sprintf("%d shards", shards), got.pointResult)
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
	bare := must(replayShard(Params{Seed: seed, ReplayRequests: requests, Shards: 4}))

	// digest hashes the spans a run drained into the caller's tracer, in
	// the order it drained them.
	digest := func(tr *obs.Tracer) uint64 {
		h := newFNV()
		for _, s := range tr.Spans() {
			h.str(s.Name)
			h.str(s.Cat)
			h.str(s.Detail)
			h.str(s.Err)
			h.u64(uint64(s.Start))
			h.u64(uint64(s.End))
		}
		return uint64(h)
	}
	digests := map[int]uint64{}
	run := func(shards int) replayShardResult {
		tr := obs.NewTracer(1 << 16)
		res := must(replayShard(Params{Seed: seed, ReplayRequests: requests, Shards: shards, Trace: tr, Counters: obs.NewRegistry()}))
		digests[shards] = digest(tr)
		return res
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
	if digests[1] != digests[4] {
		t.Errorf("span digest diverges: shards=1 %016x shards=4 %016x", digests[1], digests[4])
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

// Fault injection keys on per-region cluster names — never on scheduling —
// so a faulty scenario stays bit-identical across shard counts.
func TestReplayShardParityUnderFaults(t *testing.T) {
	const seed, requests = 3, 320
	spec := &faults.Spec{
		Seed: 42,
		Default: faults.ClusterSpec{
			PullFailProb:    0.2,
			ScaleUpFailProb: 0.1,
			CrashProb:       0.05,
		},
	}
	faultyOn := func(shards int) replayShardResult {
		return must(shardRun(pointSpec{Seed: seed, Requests: requests, Shards: shards, Faults: spec}))
	}
	serial, faulty := faultyOn(1), faultyOn(4)
	if serial.Fingerprint() != faulty.Fingerprint() {
		t.Fatalf("fault plan breaks shard parity: shards=1 %016x shards=4 %016x",
			serial.Fingerprint(), faulty.Fingerprint())
	}
	clean := must(replayShard(Params{Seed: seed, ReplayRequests: requests, Shards: 4}))
	if clean.Fingerprint() == faulty.Fingerprint() {
		t.Fatal("fault plan had no observable effect (injection not wired?)")
	}
}

// The same sharded run twice in one process must reproduce itself — no
// global state leaks across region builds or window workers.
func TestReplayShardDeterministicRepeat(t *testing.T) {
	a := must(replayShard(Params{Seed: 5, ReplayRequests: 160, Shards: 4}))
	b := must(replayShard(Params{Seed: 5, ReplayRequests: 160, Shards: 4}))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("repeat run diverged: %016x != %016x", a.Fingerprint(), b.Fingerprint())
	}
}
