package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistSmallValuesExact(t *testing.T) {
	// Values below histSubBuckets land in unit buckets, so quantiles over
	// small integers are exact.
	h := NewHist("x")
	for _, v := range []int{30, 10, 20} {
		h.Add(0, time.Duration(v))
	}
	if got := h.Median(); got != 20 {
		t.Fatalf("Median = %v, want 20", got)
	}
	if h.min != 10 || h.Max() != 30 || h.Len() != 3 {
		t.Fatalf("min/max/len = %v/%v/%d", h.min, h.Max(), h.Len())
	}
}

func TestHistExactStatsMatchSeries(t *testing.T) {
	// Len/Min/Max/Mean are tracked exactly and must equal the unbucketed
	// Series values bit-for-bit.
	rng := rand.New(rand.NewSource(7))
	s := NewSeries("x")
	h := NewHist("x")
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Intn(int(3 * time.Second)))
		s.Add(0, v)
		h.Add(0, v)
	}
	if s.Len() != h.Len() || s.Percentile(0) != h.min || s.Max() != h.Max() {
		t.Fatalf("len/min/max mismatch: series %d/%v/%v hist %d/%v/%v",
			s.Len(), s.Percentile(0), s.Max(), h.Len(), h.min, h.Max())
	}
	if s.Mean() != h.Mean() {
		t.Fatalf("Mean: series %v hist %v", s.Mean(), h.Mean())
	}
}

func TestHistQuantileError(t *testing.T) {
	// Bucketed quantiles must stay within the 1/histSubBuckets relative
	// error bound of the exact Series quantiles.
	rng := rand.New(rand.NewSource(42))
	s := NewSeries("x")
	h := NewHist("x")
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~5 decades to exercise many octaves.
		v := time.Duration(float64(time.Microsecond) *
			math.Pow(10, rng.Float64()*5))
		s.Add(0, v)
		h.Add(0, v)
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
		exact := float64(s.Percentile(p))
		approx := float64(h.Percentile(p))
		if exact == 0 {
			continue
		}
		rel := (approx - exact) / exact
		if rel < 0 {
			rel = -rel
		}
		if rel > 1.0/histSubBuckets {
			t.Errorf("P%v: exact %v approx %v rel err %.4f > %.4f",
				p, time.Duration(exact), time.Duration(approx),
				rel, 1.0/histSubBuckets)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist("x")
	if h.Median() != 0 || h.Len() != 0 || h.Mean() != 0 {
		t.Fatal("empty hist summary stats should all be 0")
	}
}

func TestHistPercentileOutOfRangePanics(t *testing.T) {
	h := NewHist("x")
	h.Add(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Percentile(-1) did not panic")
		}
	}()
	h.Percentile(-1)
}

func TestHistNonPositiveValues(t *testing.T) {
	h := NewHist("x")
	h.Add(0, -5*time.Millisecond)
	h.Add(0, 0)
	h.Add(0, time.Millisecond)
	if h.min != -5*time.Millisecond {
		t.Fatalf("Min = %v, want -5ms", h.min)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	// Quantiles are clamped to [min, max], so nothing can escape the range.
	if p := h.Percentile(0); p < h.min || p > h.Max() {
		t.Fatalf("P0 = %v outside [%v, %v]", p, h.min, h.Max())
	}
}

func TestHistIndexRoundTrip(t *testing.T) {
	// Every value must land in the bucket whose [lower, lower+width) range
	// contains it.
	vals := []time.Duration{1, 63, 64, 65, 127, 128, 129, 1000,
		time.Microsecond, time.Millisecond, time.Second, time.Hour}
	for _, v := range vals {
		idx := histIndex(v)
		lo := histLower(idx)
		hi := lo + histWidth(idx)
		if v < lo || v >= hi {
			t.Errorf("histIndex(%d) = %d with range [%d, %d): value outside",
				v, idx, lo, hi)
		}
	}
}

func TestHistRetainedBytesBounded(t *testing.T) {
	h := NewHist("x")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(0, time.Duration(rng.Intn(int(10*time.Second))))
	}
	// 100k samples over 10s fit in a few hundred buckets — the footprint
	// must be KBs, not MBs (a raw Series would hold 1.6 MB).
	if got := h.RetainedBytes(); got > 64*1024 {
		t.Fatalf("RetainedBytes = %d, want < 64KiB", got)
	}
}

func TestHistQuickPercentileInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist("q")
		for _, v := range raw {
			h.Add(0, time.Duration(v)*time.Microsecond)
		}
		med := h.Median()
		if med < h.min || med > h.Max() {
			return false
		}
		prev := time.Duration(-1) << 40
		for p := 0.0; p <= 100; p += 10 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedSeriesFoldsAtThreshold(t *testing.T) {
	s := NewBoundedSeries("x", 100)
	for i := 1; i <= 100; i++ {
		s.Add(0, ms(i))
	}
	if s.hist != nil {
		t.Fatal("series folded at threshold, want fold only beyond it")
	}
	s.Add(0, ms(101))
	if s.hist == nil {
		t.Fatal("series did not fold beyond threshold")
	}
	if s.Len() != 101 {
		t.Fatalf("Len = %d, want 101", s.Len())
	}
	if s.Samples() != nil || s.Values() != nil {
		t.Fatal("folded series should return nil raw samples")
	}
	// Summary stats survive the fold.
	if s.Percentile(0) != ms(1) || s.Max() != ms(101) || s.Mean() != ms(51) {
		t.Fatalf("min/max/mean after fold = %v/%v/%v", s.Percentile(0), s.Max(), s.Mean())
	}
	med := s.Median()
	if med < ms(50) || med > ms(52) {
		t.Fatalf("Median after fold = %v, want ~51ms", med)
	}
}

func TestBoundedSeriesMatchesExactWithinError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exact := NewSeries("x")
	bounded := NewBoundedSeries("x", 1000)
	for i := 0; i < 50000; i++ {
		v := time.Duration(rng.Intn(int(2 * time.Second)))
		exact.Add(0, v)
		bounded.Add(0, v)
	}
	for _, p := range []float64{50, 95, 99} {
		e := float64(exact.Percentile(p))
		b := float64(bounded.Percentile(p))
		rel := (b - e) / e
		if rel < 0 {
			rel = -rel
		}
		if rel > 1.0/histSubBuckets {
			t.Errorf("P%v: exact %v bounded %v rel err %.4f", p,
				time.Duration(e), time.Duration(b), rel)
		}
	}
}

func TestBoundedSeriesRetainedBytes(t *testing.T) {
	bounded := NewBoundedSeries("x", 1000)
	exact := NewSeries("x")
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100000; i++ {
		v := time.Duration(rng.Intn(int(time.Second)))
		bounded.Add(0, v)
		exact.Add(0, v)
	}
	if bounded.RetainedBytes() >= exact.RetainedBytes()/10 {
		t.Fatalf("bounded retains %d bytes, exact %d — want >10x reduction",
			bounded.RetainedBytes(), exact.RetainedBytes())
	}
}

func TestSortedMemoizedAndInvalidated(t *testing.T) {
	// Interleaved Add/Percentile: every Percentile after an Add must see the
	// new sample, and repeated Percentile calls must reuse the cached slice.
	s := NewSeries("x")
	s.Add(0, ms(30))
	s.Add(0, ms(10))
	if got := s.Median(); got != ms(20) {
		t.Fatalf("Median = %v, want 20ms", got)
	}
	first := s.sorted()
	second := s.sorted()
	if &first[0] != &second[0] {
		t.Fatal("sorted() not memoized between Adds")
	}
	s.Add(0, ms(20)) // invalidates the cache
	if got := s.Median(); got != ms(20) {
		t.Fatalf("Median after Add = %v, want 20ms", got)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	s.Add(0, ms(40))
	if got := s.Percentile(100); got != ms(40) {
		t.Fatalf("P100 after Add = %v, want 40ms — stale cache?", got)
	}
}

func TestHistMergeProperty(t *testing.T) {
	// Property: splitting a sample stream into k parts, histogramming each
	// part independently, and merging must (a) reproduce the single-hist
	// bucket state bit-identically and (b) keep every quantile within the
	// 1/histSubBuckets relative error bound of the exact merged Series.
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		n := 500 + rng.Intn(5000)
		exact := NewSeries("merged")
		whole := NewHist("whole")
		parts := make([]*Hist, k)
		for i := range parts {
			parts[i] = NewHist("part")
		}
		for i := 0; i < n; i++ {
			v := time.Duration(float64(time.Microsecond) *
				math.Pow(10, rng.Float64()*5))
			exact.Add(0, v)
			whole.Add(0, v)
			parts[rng.Intn(k)].Add(0, v)
		}
		merged := NewHist("merged")
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		if merged.Len() != exact.Len() || merged.min != whole.min ||
			merged.Max() != whole.Max() || merged.Mean() != whole.Mean() {
			t.Fatalf("merged summary stats diverge from whole histogram")
		}
		if len(merged.counts) != len(whole.counts) {
			t.Fatalf("bucket count mismatch: merged %d whole %d",
				len(merged.counts), len(whole.counts))
		}
		for i := range whole.counts {
			if merged.counts[i] != whole.counts[i] {
				t.Fatalf("bucket %d: merged %d whole %d", i, merged.counts[i], whole.counts[i])
			}
		}
		for _, p := range []float64{1, 25, 50, 75, 95, 99} {
			want := float64(exact.Percentile(p))
			got := float64(merged.Percentile(p))
			if want == 0 {
				continue
			}
			rel := math.Abs(got-want) / want
			if rel > 1.0/histSubBuckets {
				t.Errorf("trial %d P%v: exact %v merged %v rel err %.4f",
					trial, p, time.Duration(want), time.Duration(got), rel)
			}
		}
	}
}

func TestHistMergeEmptyOther(t *testing.T) {
	h := NewHist("x")
	h.Add(0, 10)
	if err := h.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(NewHist("y")); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 || h.min != 10 || h.Max() != 10 {
		t.Fatal("merging empty/nil must be a no-op")
	}
}

func TestSeriesToHist(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSeries("x")
	for i := 0; i < 1000; i++ {
		s.Add(0, time.Duration(rng.Intn(int(time.Second))))
	}
	h := s.ToHist()
	if h.Len() != s.Len() || h.min != s.Percentile(0) || h.Max() != s.Max() || h.Mean() != s.Mean() {
		t.Fatal("ToHist summary stats diverge from series")
	}
	// Folded bounded series: ToHist must return an independent copy.
	b := NewBoundedSeries("b", 10)
	for i := 0; i < 50; i++ {
		b.Add(0, time.Duration(i+1))
	}
	hb := b.ToHist()
	hb.Add(0, time.Hour)
	if b.Max() == time.Hour {
		t.Fatal("ToHist copy is not independent of the series")
	}
}

func TestHistQuantileBucketBoundarySingleBucket(t *testing.T) {
	// All samples in one bucket. With identical samples the min/max clamp
	// pins every quantile to the exact value, whatever the bucket width —
	// the SLO watcher relies on p50/p99 being exact here, not just within
	// the bucket-width error bound.
	for _, v := range []time.Duration{7, 63, 64, 100 * time.Millisecond} {
		h := NewHist("x")
		for i := 0; i < 5; i++ {
			h.Add(0, v)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if got := h.Percentile(p); got != v {
				t.Errorf("value %v: P%v = %v, want exact", v, p, got)
			}
		}
	}

	// Distinct small integers below 2^histSubBits live in unit buckets:
	// quantiles are exact and match Series bit-for-bit.
	h := NewHist("x")
	s := NewSeries("x")
	for _, v := range []time.Duration{10, 11, 12, 13} {
		h.Add(0, v)
		s.Add(0, v)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got, want := h.Percentile(p), s.Percentile(p); got != want {
			t.Errorf("unit buckets: P%v = %v, want %v", p, got, want)
		}
	}
}

func TestHistQuantileBucketBoundaryTwoBuckets(t *testing.T) {
	// Two samples in two different buckets. The fractional rank for p99
	// falls between them; the interpolation must cross the bucket boundary
	// and land next to the larger sample like Series does, instead of
	// collapsing onto the lower bucket.
	a, b := time.Duration(10), time.Duration(40) // both unit buckets: exact
	h := NewHist("x")
	s := NewSeries("x")
	for _, v := range []time.Duration{a, b} {
		h.Add(0, v)
		s.Add(0, v)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got, want := h.Percentile(p), s.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v (Series)", p, got, want)
		}
	}
	if got := h.Percentile(50); got != (a+b)/2 {
		t.Errorf("P50 = %v, want midpoint %v", got, (a+b)/2)
	}
	if got := h.Percentile(99); got != a+time.Duration(0.99*float64(b-a)) {
		t.Errorf("P99 = %v, want interpolated %v", got,
			a+time.Duration(0.99*float64(b-a)))
	}

	// Wide buckets: identical samples per bucket, so the min/max clamp makes
	// the two rank values exact and the cross-bucket interpolation exact too.
	wa, wb := 10*time.Millisecond, 40*time.Millisecond
	hw := NewHist("x")
	hw.Add(0, wa)
	hw.Add(0, wb)
	if got := hw.Percentile(0); got != wa {
		t.Errorf("wide P0 = %v, want %v", got, wa)
	}
	if got := hw.Percentile(100); got != wb {
		t.Errorf("wide P100 = %v, want %v", got, wb)
	}
	if got, want := hw.Percentile(99), wa+time.Duration(0.99*float64(wb-wa)); got != want {
		t.Errorf("wide P99 = %v, want %v", got, want)
	}

	// A lopsided split across two adjacent buckets: integer ranks that land
	// exactly on the boundary sample must return it exactly (unit buckets).
	h2 := NewHist("x")
	s2 := NewSeries("x")
	for i := 0; i < 99; i++ {
		h2.Add(0, 20)
		s2.Add(0, 20)
	}
	h2.Add(0, 30)
	s2.Add(0, 30)
	for _, p := range []float64{50, 99, 100} {
		if got, want := h2.Percentile(p), s2.Percentile(p); got != want {
			t.Errorf("lopsided P%v = %v, want %v (Series)", p, got, want)
		}
	}
}

func TestHistSum(t *testing.T) {
	h := NewHist("sum")
	h.Add(0, 2*time.Millisecond)
	h.Add(0, 3*time.Millisecond)
	if got := h.Sum(); got != 5*time.Millisecond {
		t.Fatalf("Sum = %v, want 5ms", got)
	}
}
