package geom

import (
	"math"
	"testing"
)

// symPoint applies the i-th of the square's eight symmetries (i in
// [0, 8)): bit 0 negates x, bit 1 negates y, bit 2 then swaps the axes.
// Each is exact in floating point, so a kernel that does not depend on
// which axis is x answers every image of an input as it answers the input.
func symPoint(i int, p Point) Point {
	if i&1 != 0 {
		p.X = -p.X
	}
	if i&2 != 0 {
		p.Y = -p.Y
	}
	if i&4 != 0 {
		p.X, p.Y = p.Y, p.X
	}
	return p
}

// symRect is symPoint on a rectangle, normalized again (a negated axis
// swaps Min and Max).
func symRect(i int, r Rect) Rect {
	a, b := symPoint(i, r.Min), symPoint(i, r.Max)
	return NewRect(a.X, a.Y, b.X, b.Y)
}

func symRects(i int, rs []Rect) []Rect {
	out := make([]Rect, len(rs))
	for j, r := range rs {
		out[j] = symRect(i, r)
	}
	return out
}

// checkSymmetry is the metamorphic contract of the rectangle-union kernels
// on one input: under every symmetry T, the union of the images answers
// Contains and BoundaryDist at the image of a probe exactly as the union
// answers them at the probe, and so does the cut kernel framed by the
// square around the probe for the distance to what is left; the kernel's
// area of the union and IntersectCircleArea agree within 1e-12 of their
// scale (another orientation sums other pieces); and the kernel framed by
// the window from the probe to the next one (a segment or a point when
// they share coordinates) cuts the image of the window into pairwise
// disjoint pieces inside it whose measure is the one the window itself
// leaves — so the covered verdict is the same too.
func checkSymmetry(t *testing.T, rects []Rect, probes []Point) {
	t.Helper()
	base := NewRectUnion(rects...)
	area := kernelArea(rects)
	windows := make([]Rect, len(probes))
	for i, p := range probes {
		windows[i] = NewRect(p.X, p.Y, probes[(i+1)%len(probes)].X, probes[(i+1)%len(probes)].Y)
	}
	var u Uncovered
	local := func(q Point, r float64, rects []Rect) float64 {
		u.Reset(Rect{q, q}.GrowPast(r))
		u.CutAll(rects)
		return u.Dist(Rect{q, q})
	}
	for s := 1; s < 8; s++ {
		trects := symRects(s, rects)
		img := NewRectUnion(trects...)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("symmetry %d (rects %v probes %v): "+format, append([]any{s, rects, probes}, args...)...)
		}
		if got := kernelArea(trects); math.Abs(got-area) > 1e-12*area {
			fail("Area %v, want %v", got, area)
		}
		for i, p := range probes {
			tp := symPoint(s, p)
			if got, want := img.Contains(tp), base.Contains(p); got != want {
				fail("Contains(%v) = %v, want %v", tp, got, want)
			}
			if got, want := img.BoundaryDist(tp), base.BoundaryDist(p); got != want {
				fail("BoundaryDist(%v) = %v, want %v", tp, got, want)
			}
			radii := [3]float64{0, float64(i%5) / 2, p.Dist(probes[(i+1)%len(probes)])}
			for _, r := range radii {
				if got, want := local(tp, r, trects), local(p, r, rects); got != want {
					fail("Dist(%v) in the square of reach %v = %v, want %v", tp, r, got, want)
				}
				got, want := img.IntersectCircleArea(tp, r), base.IntersectCircleArea(p, r)
				if math.Abs(got-want) > 1e-12*math.Pi*r*r {
					fail("IntersectCircleArea(%v, %v) = %v, want %v", tp, r, got, want)
				}
			}
			checkCutSymmetry(t, s, windows[i], rects)
		}
	}
}

// checkCutSymmetry checks the cut kernel under symmetry s: the pieces of
// the image window are pairwise disjoint, lie inside it, and have the
// measure of the pieces of the window itself — area, or length along a
// segment window, or the count for a point window.
func checkCutSymmetry(t *testing.T, s int, w Rect, covers []Rect) {
	t.Helper()
	want := windowMeasure(w, cutPieces(w, covers))
	tw := symRect(s, w)
	got := cutPieces(tw, symRects(s, covers))
	for i, p := range got {
		if !tw.ContainsRect(p) {
			t.Fatalf("symmetry %d: piece %v outside window %v (covers %v)", s, p, tw, covers)
		}
		for _, o := range got[i+1:] {
			if piecesOverlap(tw, p, o) {
				t.Fatalf("symmetry %d: pieces %v of window %v overlap (covers %v)", s, got, tw, covers)
			}
		}
	}
	if m := windowMeasure(tw, got); math.Abs(m-want) > 1e-12*windowMeasure(w, []Rect{w}) {
		t.Fatalf("symmetry %d: pieces %v of window %v measure %v, want %v (covers %v)", s, got, tw, m, want, covers)
	}
}

// windowMeasure sums over pieces the product of their extents on the axes
// where w has extent: area, length along a segment window, or the number
// of pieces of a point window.
func windowMeasure(w Rect, pieces []Rect) float64 {
	total := 0.0
	for _, p := range pieces {
		m := 1.0
		if w.Width() > 0 {
			m *= p.Width()
		}
		if w.Height() > 0 {
			m *= p.Height()
		}
		total += m
	}
	return total
}

// piecesOverlap reports whether two pieces of w share more than a
// boundary: they overlap strictly on every axis where w has extent (on
// the others both lie on w's line).
func piecesOverlap(w, a, b Rect) bool {
	return (w.Width() == 0 || a.Min.X < b.Max.X && b.Min.X < a.Max.X) &&
		(w.Height() == 0 || a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y)
}

// FuzzSymmetry drives checkSymmetry over the grid geometry of
// FuzzRectUnion (decodeFuzzUnion). The committed corpus
// (testdata/fuzz/FuzzSymmetry) holds the degenerate families: shared
// edges, zero-width and coincident members, corner contacts, a ring,
// probes on edges and corners, and point, zero-width and member-edge
// windows.
func FuzzSymmetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rects, probes := decodeFuzzUnion(b)
		checkSymmetry(t, rects, probes)
	})
}
