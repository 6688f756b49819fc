package metrics

import (
	"math"
	"testing"
)

func TestExpBucketsShape(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{0, 1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestExpBucketsPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		start, factor float64
		n             int
	}{{0, 2, 4}, {1, 1, 4}, {1, 2, 0}, {-1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ExpBuckets(%v, %v, %d) did not panic", tc.start, tc.factor, tc.n)
				}
			}()
			ExpBuckets(tc.start, tc.factor, tc.n)
		}()
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			newHistogram("h", "", "", bounds)
		}()
	}
}

// TestHistogramZeroObservation pins the boundary case the slot scales
// depend on: a cost-free query lands in the dedicated le="0" bucket.
func TestHistogramZeroObservation(t *testing.T) {
	h := newHistogram("h", "", "slots", SlotBuckets())
	h.Observe(0)
	if h.counts[0] != 1 {
		t.Fatalf("zero observation in bucket %v, want counts[0]=1", h.counts)
	}
	if h.Min() != 0 || h.Max() != 0 || h.count != 1 || h.sum != 0 {
		t.Fatalf("min/max/count/sum = %v/%v/%d/%v", h.Min(), h.Max(), h.count, h.sum)
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("p99 of all-zero histogram = %v, want 0", q)
	}
}

// TestHistogramMaxSlotBoundary pins the exact-bound edge: a value equal
// to the largest finite bound stays out of the overflow bucket, one ulp
// above it lands in overflow.
func TestHistogramMaxSlotBoundary(t *testing.T) {
	bounds := SlotBuckets()
	maxBound := bounds[len(bounds)-1]
	h := newHistogram("h", "", "slots", bounds)
	h.Observe(maxBound)
	if h.counts[len(bounds)-1] != 1 || h.counts[len(bounds)] != 0 {
		t.Fatalf("max-bound observation misplaced: %v", h.counts)
	}
	h.Observe(math.Nextafter(maxBound, math.Inf(1)))
	if h.counts[len(bounds)] != 1 {
		t.Fatalf("above-max observation not in overflow: %v", h.counts)
	}
}

// TestHistogramOverflowQuantiles pins the overflow-bucket contract:
// quantiles that land in +Inf report the exact observed max, not
// infinity.
func TestHistogramOverflowQuantiles(t *testing.T) {
	h := newHistogram("h", "", "slots", []float64{0, 1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(1e9) // all in overflow
	}
	if h.counts[3] != 10 {
		t.Fatalf("overflow count %v", h.counts)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 1e9 {
			t.Fatalf("Quantile(%v) = %v, want exact max 1e9", q, got)
		}
	}
	if math.IsInf(h.Quantile(1), 1) {
		t.Fatal("quantile returned +Inf")
	}
}

func TestHistogramQuantilesExactRanks(t *testing.T) {
	// 100 observations 1..100 on unit-wide buckets: the quantile is the
	// upper bound of the bucket holding the ceil(q·n)-th value, i.e. the
	// value itself.
	bounds := make([]float64, 101)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	h := newHistogram("h", "", "slots", bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1}
	for q, want := range cases {
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// q > 1 clamps to the max.
	if got := h.Quantile(1.5); got != 100 {
		t.Fatalf("Quantile(1.5) = %v, want 100", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

// TestHistogramQuantileClampedToMax: the reported quantile never
// exceeds a value that actually occurred, even when the bucket's upper
// bound does.
func TestHistogramQuantileClampedToMax(t *testing.T) {
	h := newHistogram("h", "", "slots", SlotBuckets())
	h.Observe(1000) // bucket (512, 1024]
	if got := h.Quantile(0.5); got != 1000 {
		t.Fatalf("Quantile(0.5) = %v, want clamped max 1000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram("h", "", "slots", SlotBuckets())
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram reports nonzero summary")
	}
}

func TestHistogramMinMaxTracking(t *testing.T) {
	h := newHistogram("h", "", "slots", SlotBuckets())
	for _, v := range []float64{5, 2, 9, 2, 7} {
		h.Observe(v)
	}
	if h.Min() != 2 || h.Max() != 9 || h.count != 5 || h.sum != 25 {
		t.Fatalf("min/max/count/sum = %v/%v/%d/%v", h.Min(), h.Max(), h.count, h.sum)
	}
}

func TestCanonicalScales(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"slot": SlotBuckets(), "work": WorkBuckets(), "area": AreaBuckets(),
	} {
		if bounds[0] != 0 {
			t.Fatalf("%s scale does not start with the 0 bucket: %v", name, bounds[0])
		}
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				t.Fatalf("%s scale not ascending at %d", name, i)
			}
		}
	}
	if top := SlotBuckets()[len(SlotBuckets())-1]; top < 2e6 {
		t.Fatalf("slot scale tops out at %v, want >= 2M slots", top)
	}
	if top := AreaBuckets()[len(AreaBuckets())-1]; top < 400 {
		t.Fatalf("area scale tops out at %v mi², want >= the 400 mi² service area", top)
	}
}
