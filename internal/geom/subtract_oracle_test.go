package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceSubtractRect is the window subtraction as it stood before
// AppendSubtractRect cut into a reused buffer, verbatim: fresh coordinate lists sorted
// by sort.Float64s, a fresh output slice. The kernel must return its
// rectangles bit for bit and in its order.
func referenceSubtractRect(w Rect, covers []Rect) []Rect {
	if w.Empty() {
		return nil
	}
	xs := []float64{w.Min.X, w.Max.X}
	ys := []float64{w.Min.Y, w.Max.Y}
	for _, r := range covers {
		if !r.Intersects(w) {
			continue
		}
		if r.Min.X > w.Min.X && r.Min.X < w.Max.X {
			xs = append(xs, r.Min.X)
		}
		if r.Max.X > w.Min.X && r.Max.X < w.Max.X {
			xs = append(xs, r.Max.X)
		}
		if r.Min.Y > w.Min.Y && r.Min.Y < w.Max.Y {
			ys = append(ys, r.Min.Y)
		}
		if r.Max.Y > w.Min.Y && r.Max.Y < w.Max.Y {
			ys = append(ys, r.Max.Y)
		}
	}
	dedup := func(vs []float64) []float64 {
		sort.Float64s(vs)
		out := vs[:0]
		for i, v := range vs {
			if i == 0 || v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		return out
	}
	xs, ys = dedup(xs), dedup(ys)

	covered := func(p Point) bool {
		for _, r := range covers {
			if r.Contains(p) {
				return true
			}
		}
		return false
	}

	var out []Rect
	for j := 0; j+1 < len(ys); j++ {
		ymid := (ys[j] + ys[j+1]) / 2
		stripStart := -1
		for i := 0; i <= len(xs)-1; i++ {
			uncovered := false
			if i+1 < len(xs) {
				xmid := (xs[i] + xs[i+1]) / 2
				uncovered = !covered(Point{xmid, ymid})
			}
			if uncovered && stripStart < 0 {
				stripStart = i
			}
			if !uncovered && stripStart >= 0 {
				out = append(out, Rect{
					Min: Point{xs[stripStart], ys[j]},
					Max: Point{xs[i], ys[j+1]},
				})
				stripStart = -1
			}
		}
	}
	return out
}

// subtractScratch is the one dirty buffer every differential check cuts
// into, so each call starts from whatever the previous ones left.
var subtractScratch = make([]Rect, 0, 4)

// checkAppendSubtractRect is AppendSubtractRect's whole contract on one
// input: the reference's rectangles, same bits, same order, appended after
// what dst held, with neither w nor covers written.
func checkAppendSubtractRect(t *testing.T, w Rect, covers []Rect) {
	t.Helper()
	want := referenceSubtractRect(w, covers)
	pristine := append([]Rect(nil), covers...)
	keep := Rect{Pt(-1, -2), Pt(-3, -4)}
	got := AppendSubtractRect(append(subtractScratch[:0], keep), w, covers)
	subtractScratch = got
	if got[0] != keep {
		t.Fatalf("AppendSubtractRect(%v, %v) overwrote dst[0]: %v", w, covers, got[0])
	}
	if !sameRectBits(got[1:], want) {
		t.Fatalf("AppendSubtractRect(%v, %v) = %v, reference = %v", w, covers, got[1:], want)
	}
	if !sameRectBits(covers, pristine) {
		t.Fatalf("AppendSubtractRect(%v, ...) wrote to covers: %v, were %v", w, covers, pristine)
	}
}

// decodeFuzzSubtract reads a fuzz input as a window and covers on a coarse
// grid (coordinates mod 16), four bytes per rectangle, taken raw: inverted
// and zero-area operands are as likely as proper ones. Up to 40 covers, so
// the cut lists also outgrow their stack start.
func decodeFuzzSubtract(b []byte) (w Rect, covers []Rect) {
	next := func() Rect {
		r := Rect{Pt(float64(b[0]%16), float64(b[1]%16)), Pt(float64(b[2]%16), float64(b[3]%16))}
		b = b[4:]
		return r
	}
	if len(b) < 4 {
		return Rect{}, nil
	}
	w = next()
	for len(b) >= 4 && len(covers) < 40 {
		covers = append(covers, next())
	}
	return w, covers
}

// The kernel on the named degenerate families (the committed fuzz corpus
// repeats them) and on random grid geometry.
func TestAppendSubtractRectMatchesReference(t *testing.T) {
	w := NewRect(2, 2, 8, 6)
	fence := make([]Rect, 0, 20) // more cuts than the stack start holds
	for i := 0; i < 20; i++ {
		x := 2 + float64(i)*0.3
		fence = append(fence, NewRect(x, 1, x+0.1, 7))
	}
	for _, c := range []struct {
		name   string
		w      Rect
		covers []Rect
	}{
		{"no covers", w, nil},
		{"strictly inside", w, []Rect{NewRect(4, 3, 6, 5)}},
		{"covering", w, []Rect{NewRect(0, 0, 10, 10)}},
		{"equal", w, []Rect{w}},
		{"covered by two halves", w, []Rect{NewRect(2, 2, 5, 6), NewRect(5, 2, 8, 6)}},
		{"disjoint", w, []Rect{NewRect(20, 20, 22, 22)}},
		{"edge touching", w, []Rect{NewRect(8, 0, 11, 9)}},
		{"zero-area line", w, []Rect{NewRect(5, 0, 5, 9)}},
		{"zero-area point", w, []Rect{NewRect(4, 4, 4, 4)}},
		{"inverted cover", w, []Rect{{Pt(6, 5), Pt(4, 3)}}},
		{"duplicates", w, []Rect{NewRect(3, 3, 4, 4), NewRect(3, 3, 4, 4)}},
		{"overlapping", w, []Rect{NewRect(3, 3, 6, 5), NewRect(5, 4, 9, 7)}},
		{"abutting", w, []Rect{NewRect(3, 3, 5, 5), NewRect(5, 3, 7, 5)}},
		{"picket fence", w, fence},
		{"zero-area w", NewRect(3, 3, 3, 7), []Rect{NewRect(0, 0, 9, 9)}},
		{"empty w", Rect{}, []Rect{NewRect(0, 0, 1, 1)}},
		{"ulp sliver", NewRect(1, 1, 3, 3), []Rect{NewRect(math.Nextafter(1, 2), 0, 2, 4)}},
		{"signed zeros", NewRect(-1, -1, 1, 1), []Rect{NewRect(math.Copysign(0, -1), -2, 0, 2), NewRect(-2, 0, 2, math.Copysign(0, -1))}},
	} {
		t.Run(c.name, func(t *testing.T) { checkAppendSubtractRect(t, c.w, c.covers) })
	}

	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, 4+4*40)
	for i := 0; i < 20000; i++ {
		rng.Read(buf)
		w, covers := decodeFuzzSubtract(buf[:4+4*rng.Intn(41)])
		checkAppendSubtractRect(t, w, covers)
	}
}

// FuzzAppendSubtractRect checks the kernel against the reference on grid
// geometry, consecutive inputs sharing one dirty output buffer. The
// committed corpus (testdata/fuzz/FuzzAppendSubtractRect) names the
// degenerate families.
func FuzzAppendSubtractRect(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		w, covers := decodeFuzzSubtract(b)
		checkAppendSubtractRect(t, w, covers)
	})
}
