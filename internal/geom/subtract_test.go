package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Edge cases of SubtractRect hit by the trust layer's quarantine
// subtraction: conflict rectangles are carved out of peer VRs one at a
// time, producing degenerate slivers, full containment, and repeated
// subtraction of the same rectangle.

func subtractArea(rects []Rect) float64 {
	a := 0.0
	for _, r := range rects {
		a += r.Area()
	}
	return a
}

func disjoint(rects []Rect) bool {
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if ov, ok := rects[i].Intersect(rects[j]); ok && !ov.Empty() {
				return false
			}
		}
	}
	return true
}

func TestSubtractRectNoCover(t *testing.T) {
	w := NewRect(0, 0, 4, 4)
	got := SubtractRect(w, nil)
	if len(got) != 1 || got[0] != w {
		t.Fatalf("SubtractRect(w, nil) = %v, want [w]", got)
	}
	got = SubtractRect(w, []Rect{NewRect(10, 10, 12, 12)})
	if len(got) != 1 || got[0] != w {
		t.Fatalf("non-intersecting cover changed result: %v", got)
	}
}

func TestSubtractRectFullContainment(t *testing.T) {
	w := NewRect(1, 1, 3, 3)
	got := SubtractRect(w, []Rect{NewRect(0, 0, 4, 4)})
	if len(got) != 0 {
		t.Fatalf("fully covered window left pieces: %v", got)
	}
	// Exact self-cover is full containment too.
	got = SubtractRect(w, []Rect{w})
	if len(got) != 0 {
		t.Fatalf("self-cover left pieces: %v", got)
	}
}

func TestSubtractRectEmptyWindow(t *testing.T) {
	if got := SubtractRect(Rect{}, []Rect{NewRect(0, 0, 1, 1)}); got != nil {
		t.Fatalf("empty window produced pieces: %v", got)
	}
	// Degenerate (zero-area) covers must not corrupt the decomposition.
	w := NewRect(0, 0, 4, 4)
	got := SubtractRect(w, []Rect{NewRect(2, 0, 2, 4)}) // zero-width line
	if subtractArea(got) != w.Area() {
		t.Fatalf("zero-area cover removed area: %v", got)
	}
}

// Repeated subtraction of the same rect is idempotent — the quarantine
// set can contain the same conflict rect from successive screens.
func TestSubtractRectRepeatedIdempotent(t *testing.T) {
	w := NewRect(0, 0, 10, 10)
	c := NewRect(4, 4, 6, 6)
	once := SubtractRect(w, []Rect{c})
	twice := SubtractRect(w, []Rect{c, c})
	if subtractArea(once) != subtractArea(twice) {
		t.Fatalf("repeated cover changed area: %v vs %v", subtractArea(once), subtractArea(twice))
	}
	// Chained: subtracting c from every piece of (w − c) is a no-op.
	var chained []Rect
	for _, piece := range once {
		chained = append(chained, SubtractRect(piece, []Rect{c})...)
	}
	if subtractArea(chained) != subtractArea(once) || len(chained) != len(once) {
		t.Fatalf("chained re-subtraction changed pieces: %v vs %v", chained, once)
	}
}

// Degenerate slivers: a cover leaving an ulp-thin remainder must yield
// valid, disjoint rectangles whose area matches the uncovered area.
func TestSubtractRectDegenerateSlivers(t *testing.T) {
	w := NewRect(0, 0, 1, 1)
	eps := 1e-12
	covers := []Rect{NewRect(eps, eps, 1-eps, 1-eps)}
	got := SubtractRect(w, covers)
	for _, r := range got {
		if !r.Valid() {
			t.Fatalf("invalid sliver %v", r)
		}
	}
	if !disjoint(got) {
		t.Fatalf("slivers overlap: %v", got)
	}
	want := w.Area() - covers[0].Area()
	if diff := subtractArea(got) - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sliver area %v, want %v", subtractArea(got), want)
	}
	// Sliver flush to one edge.
	got = SubtractRect(w, []Rect{NewRect(0, 0, 1, 1-eps)})
	if len(got) == 0 {
		t.Fatal("edge sliver lost entirely")
	}
	if diff := subtractArea(got) - eps; diff > 1e-13 || diff < -1e-13 {
		t.Fatalf("edge sliver area %v, want %v", subtractArea(got), eps)
	}
}

// Area conservation invariant under randomized quarantine-like loads:
// area(w − covers) + area(w ∩ union(covers)) == area(w), pieces disjoint
// and inside w, and no piece intersects any cover's interior.
func TestSubtractRectAreaConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var u RectUnion
	for trial := 0; trial < 300; trial++ {
		w := NewRect(rng.Float64()*4, rng.Float64()*4, 4+rng.Float64()*4, 4+rng.Float64()*4)
		n := rng.Intn(6)
		covers := make([]Rect, 0, n)
		for i := 0; i < n; i++ {
			cx, cy := rng.Float64()*8, rng.Float64()*8
			covers = append(covers, NewRect(cx, cy, cx+rng.Float64()*3, cy+rng.Float64()*3))
		}
		got := SubtractRect(w, covers)
		if !disjoint(got) {
			t.Fatalf("trial %d: pieces overlap: %v", trial, got)
		}
		for _, r := range got {
			if !w.ContainsRect(r) {
				t.Fatalf("trial %d: piece %v outside window %v", trial, r, w)
			}
			for _, c := range covers {
				if ov, ok := r.Intersect(c); ok && ov.Area() > 1e-9 {
					t.Fatalf("trial %d: piece %v overlaps cover %v", trial, r, c)
				}
			}
		}
		u.Reset()
		for _, c := range covers {
			if ov, ok := c.Intersect(w); ok {
				u.Add(ov)
			}
		}
		want := w.Area() - u.Area()
		if diff := subtractArea(got) - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: area %v, want %v", trial, subtractArea(got), want)
		}
	}
}

// sameRectBits reports bit- and order-equality of two rectangle lists.
func sameRectBits(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if bits(a[i].Min.X) != bits(b[i].Min.X) || bits(a[i].Min.Y) != bits(b[i].Min.Y) ||
			bits(a[i].Max.X) != bits(b[i].Max.X) || bits(a[i].Max.Y) != bits(b[i].Max.Y) {
			return false
		}
	}
	return true
}

// checkSubtractOne is AppendSubtractOne's whole contract on one input:
// the rectangles of the general routine for the single hole, same bits,
// same order, appended after whatever dst already held.
func checkSubtractOne(t *testing.T, w, hole Rect) {
	t.Helper()
	want := SubtractRect(w, []Rect{hole})
	keep := Rect{Pt(-1, -2), Pt(-3, -4)}
	got := AppendSubtractOne([]Rect{keep}, w, hole)
	if got[0] != keep {
		t.Fatalf("AppendSubtractOne(%v, %v) overwrote dst[0]: %v", w, hole, got[0])
	}
	if !sameRectBits(got[1:], want) {
		t.Fatalf("AppendSubtractOne(%v, %v) = %v, SubtractRect = %v", w, hole, got[1:], want)
	}
}

// The closed-form single-hole subtraction on the named degenerate
// families (the committed fuzz corpus repeats them) and on random grid
// geometry, where shared edges and zero-area operands are the norm.
func TestAppendSubtractOneMatchesSubtractRect(t *testing.T) {
	w := NewRect(2, 2, 8, 6)
	holes := []Rect{
		NewRect(4, 3, 6, 5),     // strictly inside: four pieces
		NewRect(0, 0, 10, 10),   // covering w
		w,                       // equal to w
		NewRect(2, 3, 5, 5),     // sharing the left edge
		NewRect(2, 2, 5, 5),     // sharing two edges (corner)
		NewRect(2, 2, 8, 4),     // sharing three edges (bottom band)
		NewRect(6, 4, 12, 9),    // corner overlap
		NewRect(8, 0, 11, 9),    // edge-touching only
		NewRect(20, 20, 22, 22), // disjoint
		NewRect(5, 0, 5, 9),     // zero-area (a line through w)
		NewRect(4, 4, 4, 4),     // zero-area (a point inside w)
		{Pt(6, 5), Pt(4, 3)},    // inverted: covers nothing, still cuts
		NewRect(0, 3, 10, 5),    // full-width band: two pieces
		NewRect(4, 0, 6, 10),    // full-height band: two pieces
	}
	for _, h := range holes {
		checkSubtractOne(t, w, h)
	}
	checkSubtractOne(t, NewRect(3, 3, 3, 7), NewRect(0, 0, 9, 9)) // zero-area w
	checkSubtractOne(t, Rect{}, NewRect(0, 0, 1, 1))
	// A sliver one ulp wide: the midpoint probe lands on a cell edge.
	checkSubtractOne(t, NewRect(1, 1, 3, 3), NewRect(math.Nextafter(1, 2), 0, 2, 4))
	checkSubtractOne(t, NewRect(1, 1, 3, 3), NewRect(0, 0, math.Nextafter(3, 0), 4))

	rng := rand.New(rand.NewSource(13))
	grid := func() float64 { return float64(rng.Intn(8)) }
	for i := 0; i < 20000; i++ {
		checkSubtractOne(t, NewRect(grid(), grid(), grid(), grid()), NewRect(grid(), grid(), grid(), grid()))
	}
}

// FuzzSubtractOne checks AppendSubtractOne against SubtractRect on
// arbitrary (NaN-free) coordinates. The operands are taken raw, not
// normalized, so inverted rectangles are covered too. The committed
// corpus (testdata/fuzz/FuzzSubtractOne) names the degenerate families.
func FuzzSubtractOne(f *testing.F) {
	f.Fuzz(func(t *testing.T, wx0, wy0, wx1, wy1, hx0, hy0, hx1, hy1 float64) {
		for _, v := range []float64{wx0, wy0, wx1, wy1, hx0, hy0, hx1, hy1} {
			if math.IsNaN(v) {
				t.Skip("NaN coordinate")
			}
		}
		checkSubtractOne(t, Rect{Pt(wx0, wy0), Pt(wx1, wy1)}, Rect{Pt(hx0, hy0), Pt(hx1, hy1)})
	})
}
