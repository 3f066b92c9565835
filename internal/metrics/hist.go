package metrics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"time"
)

// Log-bucketed histogram parameters. Each power-of-two octave is split into
// histSubBuckets linear sub-buckets, bounding the relative quantile error by
// 1/histSubBuckets (~1.6%) while keeping the whole histogram a few KiB
// regardless of sample count.
const (
	histSubBits    = 6
	histSubBuckets = 1 << histSubBits
)

// Hist is a fixed-memory log-bucketed duration histogram: Add is O(1), the
// footprint is bounded by the value range (not the sample count), and
// Median/Percentile are drop-in compatible with Series at ≤1.6% relative
// error. Count, sum, min and max are tracked exactly, so Len/Max/Mean match
// Series precisely; only the quantiles are approximate.
type Hist struct {
	Name   string
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
	// sumsqHi/sumsqLo accumulate the sum of squared sample values, part of
	// the fingerprint, as an exact 128-bit integer: integer accumulation is
	// order-independent, so merging per-shard histograms yields
	// bit-identical fingerprints to a histogram that saw every sample
	// directly.
	sumsqHi, sumsqLo uint64
}

// NewHist returns an empty named histogram.
func NewHist(name string) *Hist { return &Hist{Name: name} }

// histIndex maps a duration to its bucket: values below 2^histSubBits get
// exact unit buckets; above, the bucket keys on the exponent and the top
// histSubBits mantissa bits.
func histIndex(v time.Duration) int {
	const sb = histSubBits
	if v <= 0 {
		return 0
	}
	uv := uint64(v)
	e := uint(bits.Len64(uv) - 1)
	if e < sb {
		return int(uv)
	}
	m := (uv >> (e - sb)) - 1<<sb
	return int((uint64(e)-uint64(sb)+1)<<sb + m)
}

// histLower returns the smallest duration mapping to bucket idx.
func histLower(idx int) time.Duration {
	const sb = histSubBits
	if idx < 1<<sb {
		return time.Duration(idx)
	}
	e := uint(sb + (idx>>sb - 1))
	m := idx & (1<<sb - 1)
	return time.Duration((uint64(1)<<sb + uint64(m)) << (e - sb))
}

// histWidth returns the number of distinct durations mapping to bucket idx.
func histWidth(idx int) time.Duration {
	if idx < 1<<histSubBits {
		return 1
	}
	return time.Duration(uint64(1) << uint(idx>>histSubBits-1))
}

// Add records one sample. The timestamp is accepted for Series
// compatibility but not retained: a histogram has no per-sample memory.
func (h *Hist) Add(at, value time.Duration) {
	_ = at
	idx := histIndex(value)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	if h.total == 0 || value < h.min {
		h.min = value
	}
	if value > h.max {
		h.max = value
	}
	h.total++
	h.sum += value
	h.addSq(value)
}

// addSq folds value² into the exact 128-bit sum of squares.
func (h *Hist) addSq(value time.Duration) {
	v := uint64(value)
	if value < 0 {
		v = uint64(-value)
	}
	hi, lo := bits.Mul64(v, v)
	var carry uint64
	h.sumsqLo, carry = bits.Add64(h.sumsqLo, lo, 0)
	h.sumsqHi += hi + carry
}

// Len returns the number of recorded samples.
func (h *Hist) Len() int { return int(h.total) }

// Max returns the largest sample value (0 when empty).
func (h *Hist) Max() time.Duration { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Median returns the approximate median (0 when empty).
func (h *Hist) Median() time.Duration { return h.Percentile(50) }

// Percentile returns the approximate p-th percentile using the same
// fractional-rank convention as Series: the value is interpolated between
// the floor- and ceil-rank samples, so quantiles that straddle a bucket
// boundary blend the two buckets instead of collapsing onto the lower one
// (p99 of a two-sample histogram lands next to the larger sample, exactly
// as Series reports it). Within a multi-duration bucket the rank value is
// estimated at the sample's centered offset and clamped to [Min, Max].
// p must be in [0,100].
func (h *Hist) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	rank := p / 100 * float64(h.total-1)
	lo := uint64(math.Floor(rank))
	vlo := h.valueAtRank(lo)
	frac := rank - float64(lo)
	if frac == 0 {
		return vlo
	}
	vhi := h.valueAtRank(lo + 1)
	return vlo + time.Duration(frac*float64(vhi-vlo))
}

// valueAtRank estimates the value of the rank-th smallest sample (0-based).
// It is exact when the containing bucket spans a single duration (the unit
// region below 2^histSubBits, or any bucket pinned by the min/max clamp) and accurate
// to the bucket width otherwise.
func (h *Hist) valueAtRank(rank uint64) time.Duration {
	// The extreme ranks are tracked exactly: the smallest sample is Min and
	// the largest is Max, whatever bucket they landed in.
	if rank == 0 {
		return h.min
	}
	if rank >= h.total-1 {
		return h.max
	}
	var cum uint64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c > rank {
			v := histLower(idx)
			if w := histWidth(idx); w > 1 {
				frac := (float64(rank-cum) + 0.5) / float64(c)
				v += time.Duration(frac * float64(w))
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Sum returns the exact sum of all recorded samples.
func (h *Hist) Sum() time.Duration { return h.sum }

// RetainedBytes reports the histogram's approximate memory footprint.
func (h *Hist) RetainedBytes() int {
	return len(h.counts)*8 + 64
}

// Fingerprint returns an FNV-1a digest of the histogram's bucket state and
// exact statistics. Two histograms that saw the same sample multiset (in any
// order) fingerprint identically; it is the bit-identity check the sweep
// engine uses to prove serial and parallel runs produced the same metrics.
func (h *Hist) Fingerprint() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		f.Write(buf[:])
	}
	word(histSubBits)
	word(h.total)
	word(uint64(h.sum))
	word(uint64(h.min))
	word(uint64(h.max))
	word(h.sumsqHi)
	word(h.sumsqLo)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		word(uint64(i))
		word(c)
	}
	return f.Sum64()
}

// Clone returns an independent copy of the histogram.
func (h *Hist) Clone() *Hist {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Merge folds other's samples into h. Because both histograms bucket with
// the same scheme, merging bucket counts is exact: the merged histogram is
// bit-identical to one that had seen every sample directly, so the ≤1.6%
// quantile error bound survives any merge tree (the property the parallel
// sweep engine relies on when aggregating per-variant results). other is not
// modified; merging a nil or empty other is a no-op. Every histogram buckets
// alike, so Merge never fails: the error is always nil.
func (h *Hist) Merge(other *Hist) error {
	if other == nil || other.total == 0 {
		return nil
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
	var carry uint64
	h.sumsqLo, carry = bits.Add64(h.sumsqLo, other.sumsqLo, 0)
	h.sumsqHi += other.sumsqHi + carry
	return nil
}
