package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Edge cases of the cut kernel hit by the trust layer's quarantine
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
	got := cutPieces(w, nil)
	if len(got) != 1 || got[0] != w {
		t.Fatalf("pieces of (w, nil) = %v, want [w]", got)
	}
	got = cutPieces(w, []Rect{NewRect(10, 10, 12, 12)})
	if len(got) != 1 || got[0] != w {
		t.Fatalf("non-intersecting cover changed result: %v", got)
	}
	got = cutPieces(w, []Rect{NewRect(4, 1, 6, 3)})
	if len(got) != 1 || got[0] != w {
		t.Fatalf("a cover touching only w's edge split it: %v", got)
	}
}

func TestSubtractRectFullContainment(t *testing.T) {
	w := NewRect(1, 1, 3, 3)
	got := cutPieces(w, []Rect{NewRect(0, 0, 4, 4)})
	if len(got) != 0 {
		t.Fatalf("fully covered window left pieces: %v", got)
	}
	// Exact self-cover is full containment too.
	got = cutPieces(w, []Rect{w})
	if len(got) != 0 {
		t.Fatalf("self-cover left pieces: %v", got)
	}
}

// A window of zero area runs through the same kernel: a point or a
// segment is cut by the members it lies in, edges included, and what is
// left of it stays a piece.
func TestSubtractRectEmptyWindow(t *testing.T) {
	if got := cutPieces(Rect{}, []Rect{NewRect(0, 0, 1, 1)}); len(got) != 0 {
		t.Fatalf("point window on a member's corner left pieces: %v", got)
	}
	if got := cutPieces(Rect{}, []Rect{NewRect(1, 1, 2, 2)}); len(got) != 1 || got[0] != (Rect{}) {
		t.Fatalf("point window outside the member: pieces %v, want the point", got)
	}
	seg := NewRect(1, 0, 1, 4)
	want := []Rect{NewRect(1, 0, 1, 1), NewRect(1, 3, 1, 4)}
	if got := cutPieces(seg, []Rect{NewRect(0, 1, 1, 3)}); !rectsEqual(got, want) {
		t.Fatalf("segment on a member's edge: pieces %v, want %v", got, want)
	}
	// Degenerate (zero-area) covers cover nothing: the window stays whole.
	w := NewRect(0, 0, 4, 4)
	if got := cutPieces(w, []Rect{NewRect(2, 0, 2, 4)}); len(got) != 1 || got[0] != w {
		t.Fatalf("zero-area cover cut the window: %v", got)
	}
	if got := cutPieces(seg, []Rect{NewRect(1, 1, 1, 3)}); len(got) != 1 || got[0] != seg {
		t.Fatalf("zero-area cover cut a segment lying in it: %v", got)
	}
}

// Repeated subtraction of the same rect is idempotent — the quarantine
// set can contain the same conflict rect from successive screens.
func TestSubtractRectRepeatedIdempotent(t *testing.T) {
	w := NewRect(0, 0, 10, 10)
	c := NewRect(4, 4, 6, 6)
	once := cutPieces(w, []Rect{c})
	twice := cutPieces(w, []Rect{c, c})
	if !rectsEqual(once, twice) {
		t.Fatalf("repeated cover changed the pieces: %v vs %v", once, twice)
	}
	// Chained: subtracting c from every piece of (w − c) is a no-op.
	var chained []Rect
	for _, piece := range once {
		chained = append(chained, cutPieces(piece, []Rect{c})...)
	}
	if !rectsEqual(chained, once) {
		t.Fatalf("chained re-subtraction changed pieces: %v vs %v", chained, once)
	}
}

// Degenerate slivers: a cover leaving an ulp-thin remainder must yield
// valid, disjoint rectangles whose area matches the uncovered area.
func TestSubtractRectDegenerateSlivers(t *testing.T) {
	w := NewRect(0, 0, 1, 1)
	eps := 1e-12
	covers := []Rect{NewRect(eps, eps, 1-eps, 1-eps)}
	got := cutPieces(w, covers)
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
	got = cutPieces(w, []Rect{NewRect(0, 0, 1, 1-eps)})
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
	for trial := 0; trial < 300; trial++ {
		w := NewRect(rng.Float64()*4, rng.Float64()*4, 4+rng.Float64()*4, 4+rng.Float64()*4)
		n := rng.Intn(6)
		covers := make([]Rect, 0, n)
		for i := 0; i < n; i++ {
			cx, cy := rng.Float64()*8, rng.Float64()*8
			covers = append(covers, NewRect(cx, cy, cx+rng.Float64()*3, cy+rng.Float64()*3))
		}
		got := cutPieces(w, covers)
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
		want := w.Area() - oracleArea(clipped(covers, w))
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

// checkSubtractOne is the single-hole cut's whole contract on one input
// (a frame that is not inverted; the callers never build one): on the grid
// w's edges and the hole's edges inside it cut w into, a cell — a point on
// an axis where w has no extent — lies in some piece exactly when the
// hole, if it has area, does not contain it; the pieces lie in w and meet
// one another only on edges. So they cover exactly what the hole leaves,
// comparing coordinates alone, with no probe to round. A hole that only
// touches w leaves w whole.
func checkSubtractOne(t *testing.T, w, hole Rect) {
	t.Helper()
	if !w.Valid() {
		return
	}
	got := cutPieces(w, []Rect{hole})
	cells := func(lo, hi, a, b float64) [][2]float64 {
		cuts := []float64{lo}
		for _, v := range sortedUnique([]float64{a, b}) {
			if v > lo && v < hi {
				cuts = append(cuts, v)
			}
		}
		if hi > lo {
			cuts = append(cuts, hi)
		}
		if len(cuts) == 1 {
			return [][2]float64{{lo, lo}}
		}
		var out [][2]float64
		for i := 0; i+1 < len(cuts); i++ {
			out = append(out, [2]float64{cuts[i], cuts[i+1]})
		}
		return out
	}
	for _, x := range cells(w.Min.X, w.Max.X, hole.Min.X, hole.Max.X) {
		for _, y := range cells(w.Min.Y, w.Max.Y, hole.Min.Y, hole.Max.Y) {
			c := Rect{Pt(x[0], y[0]), Pt(x[1], y[1])}
			in := false
			for _, p := range got {
				in = in || p.ContainsRect(c)
			}
			if want := hole.Empty() || !hole.ContainsRect(c); in != want {
				t.Fatalf("cut of %v by %v = %v: cell %v in a piece %v, want %v", w, hole, got, c, in, want)
			}
		}
	}
	for i, p := range got {
		if !w.ContainsRect(p) {
			t.Fatalf("cut of %v by %v = %v: piece %v outside w", w, hole, got, p)
		}
		for _, o := range got[i+1:] {
			if p.Min.X < o.Max.X && o.Min.X < p.Max.X && p.Min.Y < o.Max.Y && o.Min.Y < p.Max.Y {
				t.Fatalf("cut of %v by %v = %v: pieces %v and %v overlap", w, hole, got, p, o)
			}
		}
	}
	if !meets(hole, w) && (len(got) != 1 || got[0] != w) {
		t.Fatalf("cut of %v by %v, which only touches it, = %v", w, hole, got)
	}
}

// The single-hole cut on the named degenerate families (the committed
// fuzz corpus repeats them) and on random grid geometry, where shared
// edges and zero-area operands are the norm.
func TestCutOneHole(t *testing.T) {
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
		{Pt(6, 5), Pt(4, 3)},    // inverted: covers nothing
		NewRect(0, 3, 10, 5),    // full-width band: two pieces
		NewRect(4, 0, 6, 10),    // full-height band: two pieces
	}
	for _, h := range holes {
		checkSubtractOne(t, w, h)
	}
	checkSubtractOne(t, NewRect(3, 3, 3, 7), NewRect(0, 0, 9, 9)) // zero-area w
	checkSubtractOne(t, NewRect(3, 3, 3, 7), NewRect(3, 4, 5, 5)) // zero-area w on the hole's edge
	checkSubtractOne(t, Rect{}, NewRect(0, 0, 1, 1))
	// A sliver one ulp wide, where a midpoint probe would land on an edge.
	checkSubtractOne(t, NewRect(1, 1, 3, 3), NewRect(math.Nextafter(1, 2), 0, 2, 4))
	checkSubtractOne(t, NewRect(1, 1, 3, 3), NewRect(0, 0, math.Nextafter(3, 0), 4))

	rng := rand.New(rand.NewSource(13))
	grid := func() float64 { return float64(rng.Intn(8)) }
	for i := 0; i < 20000; i++ {
		checkSubtractOne(t, NewRect(grid(), grid(), grid(), grid()), NewRect(grid(), grid(), grid(), grid()))
	}
}

// FuzzSubtractOne checks the single-hole cut against the cell oracle on
// arbitrary (NaN-free) coordinates. The operands are taken raw, not
// normalized, so inverted holes are covered too. The committed corpus
// (testdata/fuzz/FuzzSubtractOne) names the degenerate families.
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
