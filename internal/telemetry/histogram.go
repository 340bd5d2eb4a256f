package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram accumulates observations into fixed buckets, the distribution
// view behind the paper's "where do the microseconds go" tables: cheap
// enough for per-frame hot paths, and exact enough for p50/p99 via linear
// interpolation inside the crossed bucket (the same estimate Prometheus'
// histogram_quantile computes). All updates are atomic.
type Histogram struct {
	bounds []float64      // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// DefLatencyBuckets covers the latency range the experiments live in —
// 1 µs to 1 s in a 1-2-5 progression — in nanoseconds, the unit of both
// sim.Time and time.Duration.
func DefLatencyBuckets() []float64 {
	var b []float64
	for _, decade := range []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8} {
		for _, m := range []float64{1, 2, 5} {
			b = append(b, decade*m)
		}
	}
	return append(b, 1e9)
}

// NewHistogram creates a histogram with the given ascending upper bounds.
// A non-positive or unsorted bucket list panics: bucket boundaries are
// part of the metric's contract and a silent sort would hide the bug.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 with none.
func (h *Histogram) Min() float64 {
	if h.N() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() float64 {
	if h.N() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket observation counts; the last entry
// is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the
// bucket where the cumulative count crosses q*N and interpolating
// linearly inside it, clamped to the observed min/max so a sparse
// histogram does not report a value outside its data. Observations in
// the +Inf bucket report the observed max.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			est := lo + (hi-lo)*(rank-float64(cum))/float64(c)
			return h.clamp(est)
		}
		cum += c
	}
	return h.Max()
}

// clamp bounds an interpolated estimate to the observed range.
func (h *Histogram) clamp(v float64) float64 {
	if min := h.Min(); v < min {
		return min
	}
	if max := h.Max(); v > max {
		return max
	}
	return v
}

// P50, P90, P99 and P999 are the export quantiles.
func (h *Histogram) P50() float64  { return h.Quantile(0.50) }

// P90 returns the 90th percentile estimate.
func (h *Histogram) P90() float64  { return h.Quantile(0.90) }

// P99 returns the 99th percentile estimate.
func (h *Histogram) P99() float64  { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile estimate.
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }
