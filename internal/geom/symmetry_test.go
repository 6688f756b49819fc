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
// Contains, Clearance and CoversRect at the image of a probe exactly as
// the union answers them at the probe; Area and IntersectCircleArea agree
// within 1e-12 of their scale (another orientation sums other pieces);
// and AppendSubtractRect (all members) and AppendSubtractOne (each member
// alone) cut the image of a window into pairwise disjoint pieces inside it
// whose area is the one the window itself leaves.
func checkSymmetry(t *testing.T, rects []Rect, probes []Point) {
	t.Helper()
	base := NewRectUnion(rects...)
	area := base.Area()
	windows := make([]Rect, len(probes))
	for i, p := range probes {
		windows[i] = NewRect(p.X, p.Y, probes[(i+1)%len(probes)].X, probes[(i+1)%len(probes)].Y)
	}
	for s := 1; s < 8; s++ {
		img := NewRectUnion(symRects(s, rects)...)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("symmetry %d (rects %v probes %v): "+format, append([]any{s, rects, probes}, args...)...)
		}
		if got := img.Area(); math.Abs(got-area) > 1e-12*area {
			fail("Area %v, want %v", got, area)
		}
		for i, p := range probes {
			tp := symPoint(s, p)
			if got, want := img.Contains(tp), base.Contains(p); got != want {
				fail("Contains(%v) = %v, want %v", tp, got, want)
			}
			gd, gok := img.Clearance(tp)
			wd, wok := base.Clearance(p)
			if gd != wd || gok != wok {
				fail("Clearance(%v) = %v, %v, want %v, %v", tp, gd, gok, wd, wok)
			}
			w, tw := windows[i], symRect(s, windows[i])
			if got, want := img.CoversRect(tw), base.CoversRect(w); got != want {
				fail("CoversRect(%v) = %v, want %v", tw, got, want)
			}
			for _, r := range [3]float64{0, float64(i%5) / 2, p.Dist(probes[(i+1)%len(probes)])} {
				got, want := img.IntersectCircleArea(tp, r), base.IntersectCircleArea(p, r)
				if math.Abs(got-want) > 1e-12*math.Pi*r*r {
					fail("IntersectCircleArea(%v, %v) = %v, want %v", tp, r, got, want)
				}
			}
			checkCutSymmetry(t, s, w, rects, func(dst []Rect, w Rect, covers []Rect) []Rect {
				return AppendSubtractRect(dst, w, covers)
			})
			for j := range rects {
				checkCutSymmetry(t, s, w, rects[j:j+1], func(dst []Rect, w Rect, covers []Rect) []Rect {
					return AppendSubtractOne(dst, w, covers[0])
				})
			}
		}
	}
}

// checkCutSymmetry checks one subtraction routine under symmetry s: the
// pieces of the image window are disjoint, lie inside it, and have the
// area of the pieces of the window itself.
func checkCutSymmetry(t *testing.T, s int, w Rect, covers []Rect, cut func([]Rect, Rect, []Rect) []Rect) {
	t.Helper()
	want := subtractArea(cut(nil, w, covers))
	tw := symRect(s, w)
	got := cut(nil, tw, symRects(s, covers))
	for _, p := range got {
		if !tw.ContainsRect(p) {
			t.Fatalf("symmetry %d: piece %v outside window %v (covers %v)", s, p, tw, covers)
		}
	}
	if !disjoint(got) {
		t.Fatalf("symmetry %d: pieces %v of window %v overlap (covers %v)", s, got, tw, covers)
	}
	if a := subtractArea(got); math.Abs(a-want) > 1e-12*w.Area() {
		t.Fatalf("symmetry %d: pieces %v of window %v cover %v, want %v (covers %v)", s, got, tw, a, want, covers)
	}
}

// FuzzSymmetry drives checkSymmetry over the grid geometry of
// FuzzRectUnion (decodeFuzzUnion). The committed corpus
// (testdata/fuzz/FuzzSymmetry) holds the degenerate families: shared
// edges, zero-width and coincident members, corner contacts, a ring, and
// probes on edges and corners.
func FuzzSymmetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rects, probes := decodeFuzzUnion(b)
		checkSymmetry(t, rects, probes)
	})
}
