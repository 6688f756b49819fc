package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket distribution with exact count/sum/min/max
// tracking and deterministic quantile extraction. Buckets are defined by
// ascending upper bounds; an observation v lands in the first bucket
// whose bound satisfies v <= bound, and values above the last bound land
// in the implicit +Inf overflow bucket. Bucket layouts are fixed at
// registration, so Observe never allocates.
//
// Quantiles are deterministic: Quantile(q) returns the upper bound of
// the bucket containing the ceil(q·count)-th smallest observation,
// clamped to the exact observed maximum (so the reported quantile never
// exceeds a value that actually occurred, and Quantile(1) == Max
// whenever the top-ranked observation sits in the overflow bucket).
type Histogram struct {
	name   string
	help   string
	unit   string
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64  // len(bounds)+1; last entry is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(name, help, unit string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly ascending at %d", name, i))
		}
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Histogram{
		name:   name,
		help:   help,
		unit:   unit,
		bounds: own,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free: a binary search over the
// fixed bounds plus integer updates.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 {
		h.min, h.max = v, v
		return
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveInt records an integer-valued observation (slots, work units).
func (h *Histogram) ObserveInt(v int64) { h.Observe(float64(v)) }

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the deterministic q-quantile for q in [0, 1]: the
// upper bound of the bucket holding the ceil(q·count)-th smallest
// observation, clamped to the exact observed maximum. Returns 0 for an
// empty histogram; q outside [0, 1] is clamped.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == len(h.bounds) {
				return h.max // overflow bucket: the exact max is the bound
			}
			return math.Min(h.bounds[i], h.max)
		}
	}
	return h.max
}

// ExpBuckets returns a log-scale bucket layout: a leading 0 bound (so
// "cost-free" observations get their own bucket) followed by n
// exponentially growing bounds start, start·factor, start·factor², …
// Panics on non-positive start, factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, 0, n+1)
	out = append(out, 0)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// SlotBuckets is the canonical layout for slot-valued quantities
// (latency, tuning, backoff): {0, 1, 2, 4, …, 2²¹ ≈ 2.1M slots} — at
// the paper's 50 ms slot this spans up to ~29 hours of channel time.
func SlotBuckets() []float64 { return ExpBuckets(1, 2, 22) }

// WorkBuckets is the canonical layout for work-unit quantities (regions
// merged, candidates verified): {0, 1, 2, 4, …, 65536}.
func WorkBuckets() []float64 { return ExpBuckets(1, 2, 17) }

// AreaBuckets is the canonical layout for area-valued quantities in
// square miles: {0, 1e-4, 4e-4, …, ~419} — from a ~50 ft square up to
// beyond the paper's full 400 mi² service area.
func AreaBuckets() []float64 { return ExpBuckets(1e-4, 4, 12) }
