//go:build !race

// Steady-state allocation assertions for the reused RectUnion and cut
// kernel. Excluded under the race detector: -race instruments allocations
// and makes AllocsPerRun counts meaningless.

package geom

import (
	"math/rand"
	"testing"
)

// TestRectUnionReuseAllocs asserts the query cycle of a reused union and
// its cut kernel allocates nothing once warm: Reset → Add on the union,
// and on the kernel Reset → Cut every member → Dist, UnverifiedArea and
// Pieces, framed by a reach square and by a window in turn. Both piece
// buffers must reuse their capacity across queries. This is the
// steady-state contract the sim hot path depends on; any regression fails
// the build.
func TestRectUnionReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 48)
	for i := range rects {
		x, y := rng.Float64()*90, rng.Float64()*90
		rects[i] = NewRect(x, y, x+2+rng.Float64()*8, y+2+rng.Float64()*8)
	}
	var u RectUnion
	var k Uncovered
	q := Pt(50, 50)
	cycle := func() {
		u.Reset()
		for _, r := range rects {
			u.Add(r)
		}
		_ = u.Contains(q)
		for _, frame := range [2]Rect{Rect{q, q}.GrowPast(15), NewRect(30, 30, 70, 70)} {
			k.Reset(frame)
			k.CutAll(u.Rects())
			_ = k.Dist(Rect{q, q})
			_ = k.UnverifiedArea(q, 15)
			_ = k.Pieces()
		}
	}
	cycle() // warm every buffer to capacity
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm union and kernel cycle allocates %.1f times per run, want 0", allocs)
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
