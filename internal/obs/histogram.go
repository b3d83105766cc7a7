package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the latency histograms: power-of-two
// microsecond buckets, so bucket i holds observations in (2^(i-1), 2^i] µs.
// 32 buckets reach ~71 minutes, far beyond any single phase of the loop.
const histBuckets = 32

// Histogram is a lock-free latency histogram with exponential (power-of-two
// microsecond) buckets. The zero value is ready to use. Observe is a single
// atomic add per bucket plus two for count/sum, so it is safe on the
// evaluator's hot path.
type Histogram struct {
	count   atomic.Uint64
	sumUs   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(0)
	if d > 0 {
		us = uint64(d.Microseconds())
	}
	h.count.Add(1)
	h.sumUs.Add(us)
	h.buckets[bucketFor(us)].Add(1)
}

// bucketFor maps a microsecond value to its bucket index: 0 for 0-1µs, then
// one bucket per power of two, clamped to the last bucket.
func bucketFor(us uint64) int {
	if us <= 1 {
		return 0
	}
	b := bits.Len64(us - 1) // ceil(log2(us))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketUpperUs returns bucket i's inclusive upper bound in microseconds.
func BucketUpperUs(i int) uint64 { return uint64(1) << uint(i) }

// HistogramSnapshot is a consistent-enough copy of a histogram for export:
// buckets are read individually, so a snapshot taken mid-Observe can be off
// by the in-flight observation — fine for monitoring.
type HistogramSnapshot struct {
	Count   uint64
	SumUs   uint64
	Buckets [histBuckets]uint64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumUs = h.sumUs.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the estimated q-quantile latency in microseconds, with
// linear interpolation inside the landing bucket. q is clamped to [0, 1]. An
// empty histogram yields 0. The first bucket interpolates over [0µs, 1µs].
// Observations in the last bucket are clamped (the bucket has no true upper
// bound), so a quantile landing there returns the bucket's lower bound rather
// than extrapolating beyond what was measured.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1 // the quantile of at least one observation
	}
	var cum uint64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		cum += b
		if float64(cum) < target {
			continue
		}
		if i == histBuckets-1 {
			// Clamped overflow bucket: report its lower bound.
			return float64(BucketUpperUs(i - 1))
		}
		lower := 0.0
		if i > 0 {
			lower = float64(BucketUpperUs(i - 1))
		}
		upper := float64(BucketUpperUs(i))
		frac := (target - float64(cum-b)) / float64(b)
		return lower + frac*(upper-lower)
	}
	// Unreachable when Count matches the bucket sums; be defensive for
	// snapshots taken mid-Observe.
	return float64(BucketUpperUs(histBuckets - 2))
}

// Latency summarizes the snapshot as LatencyStats (count, mean, and
// interpolated quantiles, in milliseconds).
func (s HistogramSnapshot) Latency() LatencyStats {
	ls := LatencyStats{Count: s.Count}
	if s.Count == 0 {
		return ls
	}
	ls.MeanMs = float64(s.SumUs) / float64(s.Count) / 1e3
	ls.P50Ms = s.Quantile(0.5) / 1e3
	ls.P90Ms = s.Quantile(0.9) / 1e3
	ls.P99Ms = s.Quantile(0.99) / 1e3
	return ls
}
