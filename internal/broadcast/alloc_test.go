//go:build !race

// Steady-state allocation assertions for the on-air client kernels.
// Excluded under the race detector, whose instrumentation makes
// AllocsPerRun counts meaningless.

package broadcast

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// A warm Scratch answers kNN and window queries and grows a retrieval's
// region without allocating, on a lossy channel too.
func TestOnAirClientsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cfg := testConfig()
	cfg.LossRate = 0.2
	s := mustSchedule(t, randomPOIs(rng, 600, 64), cfg)
	var sc Scratch
	windows := make([]geom.Rect, 2)
	query := func(i int) {
		q := geom.Pt(float64(i*7%64), float64(i*13%64))
		s.KNN(&sc, q, 1+i%9, int64(i), Bounds{})
		s.KNN(&sc, q, 5, int64(i), Bounds{Upper: 9, Lower: 3})
		windows[0], windows[1] = geom.RectAround(q, 6), geom.RectAround(q, 2)
		_, _, retrieved, _ := s.Window(&sc, windows, int64(i))
		s.GrowCompleteRect(&sc, windows[1], retrieved, 400)
	}
	for i := 0; i < 64; i++ {
		query(i) // warm the scratch to capacity
	}
	i := 0
	if allocs := testing.AllocsPerRun(64, func() { query(i); i++ }); allocs != 0 {
		t.Fatalf("warm on-air clients allocate %.1f times per query, want 0", allocs)
	}
}

// A schedule build allocates its tables, not one slice per cell: ten times
// the POIs (and about eight times the packets) add only the packet array's
// appends, where the per-cell body allocated once per occupied cell.
func TestScheduleBuildAllocs(t *testing.T) {
	cfg := Config{Area: geom.NewRect(0, 0, 64, 64), Order: 6, PacketCapacity: 8, M: 4}
	build := func(n int) float64 {
		pois := randomPOIs(rand.New(rand.NewSource(2)), n, 64)
		return testing.AllocsPerRun(5, func() {
			if _, err := NewSchedule(pois, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(275), build(2750)
	if small > 24 || large > small+6 {
		t.Fatalf("NewSchedule allocated %v times for 275 POIs and %v for 2,750", small, large)
	}
}
