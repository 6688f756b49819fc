//go:build !race

// Steady-state allocation gates for the metrics observation path,
// following the internal/core/alloc_test.go pattern (excluded under the
// race detector, whose instrumentation skews AllocsPerRun).

package metrics

import "testing"

// TestObservationPathZeroAllocs pins the hot-path contract. A counter or
// gauge has no observation path of its own: its owner moves the value it
// already keeps, and the registry reads it only when it snapshots.
// Histogram observation runs without touching the allocator once
// registered. The sim loop observes once per query across tens of
// thousands of hosts; any regression here fails the build.
func TestObservationPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	var n int64
	var v float64
	r.Counter("c", "", func() int64 { return n })
	r.Gauge("g", "", func() float64 { return v })
	h := r.Histogram("h", "", "slots", SlotBuckets())

	allocs := testing.AllocsPerRun(100, func() {
		n += 3
		v = 12.5
		h.Observe(137)
		h.ObserveInt(42)
	})
	if allocs != 0 {
		t.Fatalf("observation path allocates %.1f times per run, want 0", allocs)
	}
	s := r.Snapshot()
	if c, _ := s.Counter("c"); c.Value != n {
		t.Fatalf("counter read %d, want %d", c.Value, n)
	}
	if g, _ := s.Gauge("g"); g.Value != v {
		t.Fatalf("gauge read %v, want %v", g.Value, v)
	}
}

// TestQuantileZeroAllocs: quantile extraction is read-only arithmetic
// over the fixed buckets — snapshot-free consumers (the experiments
// phase tables) may call it on the live histogram without GC cost.
func TestQuantileZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "slots", SlotBuckets())
	for i := 0; i < 1000; i++ {
		h.ObserveInt(int64(i * 13 % 5000))
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.5)
		_ = h.Quantile(0.99)
		_ = h.Mean()
		_ = h.Max()
	})
	if allocs != 0 {
		t.Fatalf("quantile path allocates %.1f times per run, want 0", allocs)
	}
}
