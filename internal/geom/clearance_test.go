package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentRectDist(t *testing.T) {
	r := NewRect(0, 0, 4, 4)
	cases := []struct {
		name string
		s    Segment
		want float64
	}{
		{"crossing", Segment{Pt(-1, 2), Pt(5, 2)}, 0},
		{"inside", Segment{Pt(1, 1), Pt(3, 1)}, 0},
		{"touching edge", Segment{Pt(4, 1), Pt(4, 3)}, 0},
		{"left of rect", Segment{Pt(-2, 1), Pt(-2, 3)}, 2},
		{"above rect", Segment{Pt(1, 7), Pt(3, 7)}, 3},
		{"diagonal corner gap", Segment{Pt(7, 8), Pt(9, 8)}, math.Hypot(3, 4)},
		{"degenerate point", Segment{Pt(-3, -4), Pt(-3, -4)}, 5},
	}
	for _, c := range cases {
		if got := segmentRectDist(c.s, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
}

// Differential: for axis-parallel segments the closed-form distance must
// agree with a dense sampling of Rect.Dist along the segment (Rect.Dist
// is 1-Lipschitz, so n samples bound the error by length/n).
func TestQuickSegmentRectDistSampled(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRect(rng, 5)
		a := randomPoint(rng, 8)
		b := a
		if rng.Intn(2) == 0 {
			b.X = a.X + rng.Float64()*6 // horizontal
		} else {
			b.Y = a.Y + rng.Float64()*6 // vertical
		}
		s := Segment{a, b}
		got := segmentRectDist(s, r)
		const n = 2000
		brute := math.Inf(1)
		for i := 0; i <= n; i++ {
			t := float64(i) / n
			p := Pt(a.X+t*(b.X-a.X), a.Y+t*(b.Y-a.Y))
			if d := r.Dist(p); d < brute {
				brute = d
			}
		}
		return math.Abs(got-brute) <= s.Length()/n+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// windowClearance is how far w may translate inside the union of rects,
// and whether the union covers w: the kernel framed by w decides coverage
// (no piece left), the kernel framed by the bounding box measures w's
// distance to what the members leave of it.
func windowClearance(rects []Rect, w Rect) (float64, bool) {
	live := NewRectUnion(rects...).Rects()
	if len(cutPieces(w, live)) > 0 {
		return 0, false
	}
	var u Uncovered
	u.Reset(Bounds(live))
	u.CutAll(live)
	return u.Dist(w), true
}

func TestClearanceRectHand(t *testing.T) {
	u := []Rect{NewRect(0, 0, 10, 10)}
	if d, ok := windowClearance(u, NewRect(4, 4, 6, 6)); !ok || math.Abs(d-4) > 1e-12 {
		t.Errorf("centered window: got (%g, %v), want (4, true)", d, ok)
	}
	if d, ok := windowClearance(u, NewRect(0, 0, 10, 10)); !ok || d != 0 {
		t.Errorf("window == union: got (%g, %v), want (0, true)", d, ok)
	}
	if _, ok := windowClearance(u, NewRect(8, 8, 12, 12)); ok {
		t.Error("uncovered window reported as covered")
	}

	// Two overlapping members: the shared interior edge is not boundary,
	// so a window straddling the seam keeps the clearance of the outer
	// perimeter.
	u2 := []Rect{NewRect(0, 0, 6, 10), NewRect(4, 0, 10, 10)}
	if d, ok := windowClearance(u2, NewRect(4.5, 4, 5.5, 6)); !ok || math.Abs(d-4) > 1e-12 {
		t.Errorf("seam window: got (%g, %v), want (4, true)", d, ok)
	}
}

// Property: any translation of a covered window by a vector strictly
// shorter than its clearance keeps the window covered — the safe-region
// soundness contract continuous subscriptions rely on (DESIGN.md §15).
func TestQuickClearanceRectSafeTranslation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []Rect
		for i := 0; i < 1+rng.Intn(6); i++ {
			rects = append(rects, randomRect(rng, 5))
		}
		// Carve a window inside one member so it starts covered.
		host := rects[rng.Intn(len(rects))]
		cx, cy := host.Center().X, host.Center().Y
		w := NewRect(
			cx-rng.Float64()*host.Width()/2, cy-rng.Float64()*host.Height()/2,
			cx+rng.Float64()*host.Width()/2, cy+rng.Float64()*host.Height()/2,
		)
		d, ok := windowClearance(rects, w)
		if !ok {
			return !bruteCovers(w, rects)
		}
		if d == 0 {
			return true // window touches the boundary; no safe translation
		}
		for i := 0; i < 16; i++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * d * 0.999
			v := Pt(step*math.Cos(ang), step*math.Sin(ang))
			moved := Rect{Min: w.Min.Add(v), Max: w.Max.Add(v)}
			if !bruteCovers(moved, rects) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInnerGap(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if g := r.InnerGap(NewRect(2, 3, 6, 5)); math.Abs(g-2) > 1e-12 {
		t.Errorf("inner gap: got %g, want 2", g)
	}
	if g := r.InnerGap(r); g != 0 {
		t.Errorf("self gap: got %g, want 0", g)
	}
	if g := r.InnerGap(NewRect(-1, 2, 4, 6)); g >= 0 {
		t.Errorf("escaping rect must report a negative gap, got %g", g)
	}
}
