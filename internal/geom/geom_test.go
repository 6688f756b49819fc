package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 7), 7},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v)=%v want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); !almostEqual(got, c.want*c.want, 1e-9) {
			t.Errorf("DistSq(%v,%v)=%v want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointVectorOps(t *testing.T) {
	p := Pt(2, 3)
	if got := p.Add(Pt(1, -1)); got != Pt(3, 2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(1, -1)); got != Pt(1, 4) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := Pt(3, 4).Norm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Min != Pt(1, 2) || r.Max != Pt(5, 7) {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
	if !r.Valid() {
		t.Fatal("normalized rect must be valid")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %v", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v", got)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported Empty")
	}
	if !NewRect(1, 1, 1, 5).Empty() {
		t.Error("zero-width rect must be Empty")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	for _, p := range []Point{Pt(0, 0), Pt(2, 2), Pt(1, 1), Pt(0, 1)} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false", p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 0), Pt(2.1, 1), Pt(1, -3)} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true", p)
		}
	}
	if r.ContainsStrict(Pt(0, 1)) {
		t.Error("boundary point must not be strictly contained")
	}
	if !r.ContainsStrict(Pt(1, 1)) {
		t.Error("interior point must be strictly contained")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(2, 2, 4, 4) {
		t.Fatalf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(NewRect(5, 5, 6, 6)); ok {
		t.Error("disjoint rects must not intersect with area")
	}
	// Touching rects intersect as sets but have degenerate overlap.
	if _, ok := a.Intersect(NewRect(4, 0, 6, 4)); ok {
		t.Error("edge-touching overlap must be reported degenerate")
	}
	if !a.Intersects(NewRect(4, 0, 6, 4)) {
		t.Error("edge-touching rects do share points")
	}
}

func TestRectUnionAndContainsRect(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(2, 3, 4, 5)
	if got := a.Union(b); got != NewRect(0, 0, 4, 5) {
		t.Errorf("Union = %v", got)
	}
	if !NewRect(0, 0, 4, 5).ContainsRect(b) {
		t.Error("ContainsRect failed for contained rect")
	}
	if b.ContainsRect(a) {
		t.Error("ContainsRect must fail for disjoint rect")
	}
}

func TestRectDist(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},   // inside
		{Pt(3, 1), 1},   // right
		{Pt(1, -2), 2},  // below
		{Pt(5, 6), 5},   // corner: 3-4-5
		{Pt(-3, -4), 5}, // opposite corner
		{Pt(2, 2), 0},   // on corner
		{Pt(0, 1), 0},   // on edge
		{Pt(2.5, 2.5), math.Sqrt(0.5)},
	}
	for _, c := range cases {
		if got := r.Dist(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v) = %v want %v", c.p, got, c.want)
		}
		if got := r.DistSq(c.p); !almostEqual(got, c.want*c.want, 1e-12) {
			t.Errorf("DistSq(%v) = %v want %v", c.p, got, c.want*c.want)
		}
	}
	if d := r.DistSq(Pt(math.NaN(), 1)); !math.IsNaN(d) {
		t.Errorf("DistSq of a NaN point = %v, want NaN", d)
	}
}

func TestRectMaxDist(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if got := r.MaxDist(Pt(0, 0)); !almostEqual(got, math.Sqrt(8), 1e-12) {
		t.Errorf("MaxDist corner = %v", got)
	}
	if got := r.MaxDist(Pt(1, 1)); !almostEqual(got, math.Sqrt(2), 1e-12) {
		t.Errorf("MaxDist center = %v", got)
	}
	if got := r.MaxDist(Pt(-1, 1)); !almostEqual(got, math.Hypot(3, 1), 1e-12) {
		t.Errorf("MaxDist outside = %v", got)
	}
}

func TestRectBoundaryDist(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 1), 1}, // center: nearest edges are top/bottom
		{Pt(0.5, 1), 0.5},
		{Pt(2, 0), 0}, // on edge
		{Pt(6, 1), 2}, // outside
	}
	for _, c := range cases {
		if got := r.BoundaryDist(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("BoundaryDist(%v) = %v want %v", c.p, got, c.want)
		}
	}
}

func TestRectClipAndExpand(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if got := r.Clip(Pt(5, -1)); got != Pt(2, 0) {
		t.Errorf("Clip = %v", got)
	}
	if got := r.Clip(Pt(1, 1)); got != Pt(1, 1) {
		t.Errorf("Clip interior = %v", got)
	}
	if got := r.Expand(1); got != NewRect(-1, -1, 3, 3) {
		t.Errorf("Expand = %v", got)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(1, 2), 3)
	if r != NewRect(-2, -1, 4, 5) {
		t.Fatalf("RectAround = %v", r)
	}
}

func TestRectCorners(t *testing.T) {
	c := NewRect(0, 0, 1, 2).Corners()
	want := [4]Point{Pt(0, 0), Pt(1, 0), Pt(1, 2), Pt(0, 2)}
	if c != want {
		t.Errorf("Corners = %v", c)
	}
}

func TestSegmentDist(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(4, 0)}
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 3), 3},  // perpendicular drop onto segment
		{Pt(-3, 4), 5}, // beyond A endpoint
		{Pt(7, 4), 5},  // beyond B endpoint
		{Pt(2, 0), 0},  // on segment
	}
	for _, c := range cases {
		if got := s.Dist(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Segment.Dist(%v) = %v want %v", c.p, got, c.want)
		}
	}
	// Degenerate segment falls back to point distance.
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if got := deg.Dist(Pt(4, 5)); !almostEqual(got, 5, 1e-12) {
		t.Errorf("degenerate segment Dist = %v", got)
	}
	if got := s.Length(); got != 4 {
		t.Errorf("Length = %v", got)
	}
}

// Property: Dist is symmetric and satisfies the triangle inequality.
func TestPointDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		c := Pt(clampCoord(cx), clampCoord(cy))
		if !almostEqual(a.Dist(b), b.Dist(a), 1e-9) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Rect.Dist(p) is zero exactly for contained points and is a
// lower bound of the distance to any contained point; Rect.DistSq(p) is
// one of the squared distance as Point.DistSq computes it, exactly — at a
// random point, a random edge point and the corners.
func TestRectDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := randomRect(rng, 10)
		p := randomPoint(rng, 15)
		d := r.Dist(p)
		if r.Contains(p) != (d == 0) {
			t.Fatalf("Contains/Dist mismatch: r=%v p=%v d=%v", r, p, d)
		}
		inside := Pt(
			r.Min.X+rng.Float64()*r.Width(),
			r.Min.Y+rng.Float64()*r.Height(),
		)
		if p.Dist(inside) < d-1e-9 {
			t.Fatalf("Dist not a lower bound: r=%v p=%v", r, p)
		}
		if p.Dist(inside) > r.MaxDist(p)+1e-9 {
			t.Fatalf("MaxDist not an upper bound: r=%v p=%v", r, p)
		}
		edge := Pt(r.Min.X+rng.Float64()*r.Width(), r.Max.Y)
		corners := r.Corners()
		for _, o := range append(corners[:], inside, edge) {
			if o.DistSq(p) < r.DistSq(p) {
				t.Fatalf("DistSq not a lower bound: r=%v p=%v o=%v", r, p, o)
			}
		}
	}
}

func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func randomPoint(rng *rand.Rand, span float64) Point {
	return Pt(rng.Float64()*2*span-span, rng.Float64()*2*span-span)
}

func randomRect(rng *rand.Rand, span float64) Rect {
	a := randomPoint(rng, span)
	b := randomPoint(rng, span)
	if a.X == b.X {
		b.X++
	}
	if a.Y == b.Y {
		b.Y++
	}
	return NewRect(a.X, a.Y, b.X, b.Y)
}
