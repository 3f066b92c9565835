package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: merging any partition of a sample multiset into an empty
// receiver fingerprints identically to feeding every sample directly —
// including min/max/Mean, which an empty receiver must adopt rather than
// clamp against its zero value.
func TestMergePartitionEqualsDirect(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		samples := make([]time.Duration, n)
		for i := range samples {
			// Spread across octaves, and bias away from zero so min is
			// usually nonzero (the poisoning case).
			samples[i] = time.Duration(1 + rng.Int63n(1<<uint(10+rng.Intn(20))))
		}
		direct := NewHist("direct")
		for _, v := range samples {
			direct.Add(0, v)
		}
		k := 1 + int(cut)%4
		parts := make([]*Hist, k)
		for i := range parts {
			parts[i] = NewHist("part")
		}
		for i, v := range samples {
			parts[i%k].Add(0, v)
		}
		merged := NewHist("direct") // same name: fingerprint covers stats only
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return merged.Fingerprint() == direct.Fingerprint() &&
			merged.min == direct.min &&
			merged.Max() == direct.Max() &&
			merged.Mean() == direct.Mean() &&
			merged.Len() == direct.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: an empty receiver must not poison min with its zero value —
// a merged-in histogram whose smallest sample is large keeps that min.
func TestMergeEmptyReceiverAdoptsStats(t *testing.T) {
	src := NewHist("src")
	src.Add(0, 5*time.Second)
	src.Add(0, 7*time.Second)
	dst := NewHist("dst")
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if dst.min != 5*time.Second {
		t.Fatalf("Min = %v, want 5s (empty receiver clamped min to zero)", dst.min)
	}
	if dst.Max() != 7*time.Second {
		t.Fatalf("Max = %v, want 7s", dst.Max())
	}
	if dst.Mean() != 6*time.Second {
		t.Fatalf("Mean = %v, want 6s", dst.Mean())
	}
}

// Property: Merge is associative in fingerprint terms — ((a+b)+c) equals
// (a+(b+c)) — the property that makes per-shard merge trees order-robust.
func TestMergeAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Hist {
			h := NewHist("h")
			for i, n := 0, rng.Intn(50); i < n; i++ {
				h.Add(0, time.Duration(rng.Int63n(int64(time.Minute))))
			}
			return h
		}
		a, b, c := mk(), mk(), mk()
		left := NewHist("h")
		_ = left.Merge(a)
		_ = left.Merge(b)
		_ = left.Merge(c)
		bc := NewHist("h")
		_ = bc.Merge(b)
		_ = bc.Merge(c)
		right := NewHist("h")
		_ = right.Merge(a)
		_ = right.Merge(bc)
		return left.Fingerprint() == right.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Merging a nil or empty other is a no-op and must not disturb the
// receiver.
func TestMergeEmptyOtherNoop(t *testing.T) {
	h := NewHist("h")
	h.Add(0, time.Second)
	fp := h.Fingerprint()
	if err := h.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(NewHist("e")); err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint() != fp {
		t.Fatal("no-op merge changed the receiver")
	}
}
