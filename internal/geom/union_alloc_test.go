//go:build !race

// Steady-state allocation assertions for the reused RectUnion. Excluded
// under the race detector: -race instruments allocations and makes
// AllocsPerRun counts meaningless.

package geom

import (
	"math/rand"
	"testing"
)

// TestRectUnionReuseAllocs asserts the full Reset → Add → query cycle
// allocates nothing once warm: every cache (disjoint decomposition, row
// directory, grid scratch) must reuse its
// capacity across queries. This is the steady-state contract the sim
// hot path depends on; any regression fails the build.
func TestRectUnionReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 48)
	for i := range rects {
		x, y := rng.Float64()*90, rng.Float64()*90
		rects[i] = NewRect(x, y, x+2+rng.Float64()*8, y+2+rng.Float64()*8)
	}
	var u RectUnion
	cycle := func() {
		u.Reset()
		for _, r := range rects {
			u.Add(r)
		}
		_ = u.BoundaryDist(Pt(50, 50))
		_ = u.IntersectCircleArea(Pt(50, 50), 15)
		_ = u.CoversRect(NewRect(40, 40, 60, 60))
		_ = u.IntersectRectArea(NewRect(30, 30, 70, 70))
	}
	cycle() // warm every cache to capacity
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm RectUnion cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestAppendSubtractRectZeroAllocs pins the repair and reduction kernel:
// cutting into a warm buffer allocates nothing — no boxed sort, no
// coordinate lists — while no more than 15 covers meet the window.
func TestAppendSubtractRectZeroAllocs(t *testing.T) {
	w := NewRect(0, 0, 10, 10)
	var covers []Rect
	for i := 0; i < 15; i++ {
		x := float64(i) * 0.6
		covers = append(covers, NewRect(x, x, x+0.5, x+0.5))
	}
	covers = append(covers, NewRect(20, 20, 30, 30)) // misses w: costs no cut
	dst := AppendSubtractRect(nil, w, covers)
	if allocs := testing.AllocsPerRun(50, func() { dst = AppendSubtractRect(dst[:0], w, covers) }); allocs != 0 {
		t.Fatalf("warm AppendSubtractRect allocates %.1f times per run, want 0", allocs)
	}
}
