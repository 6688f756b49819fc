package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleCircleArea is a brute-force reference for RectUnion.IntersectCircleArea
// that shares nothing with it: no disjoint decomposition and no
// CircleRectArea. At abscissa x the disk's chord is the segment of
// half-length a = √(r² − (x − c.X)²) around c.Y; the area is the integral
// over x of the length of that chord the members cover, merged as 1-D
// intervals. Between consecutive breakpoints — the members' x edges, the
// abscissas where a chord end crosses a member's y edge, and c.X ± r — that
// length is a fixed sum of constants and ±a terms, so after substituting
// x = c.X + r sin θ each piece is a trigonometric polynomial of degree two
// in θ, which 16-point Gauss–Legendre quadrature integrates to rounding.
func oracleCircleArea(rects []Rect, c Point, r float64) float64 {
	if r <= 0 {
		return 0
	}
	thetas := []float64{-math.Pi / 2, math.Pi / 2}
	for _, m := range rects {
		for _, x := range [2]float64{m.Min.X, m.Max.X} {
			if s := (x - c.X) / r; s > -1 && s < 1 {
				thetas = append(thetas, math.Asin(s))
			}
		}
		for _, y := range [2]float64{m.Min.Y, m.Max.Y} {
			if s := math.Abs(y-c.Y) / r; s < 1 {
				thetas = append(thetas, math.Acos(s), -math.Acos(s))
			}
		}
	}
	sort.Float64s(thetas)
	total := 0.0
	for i := 0; i+1 < len(thetas); i++ {
		half, mid := (thetas[i+1]-thetas[i])/2, (thetas[i+1]+thetas[i])/2
		for k, node := range gaussNodes {
			theta := mid + half*node
			a := r * math.Cos(theta) // the chord's half-length, and dx/dθ
			total += half * gaussWeights[k] * a * coveredLength(rects, c.X+r*math.Sin(theta), c.Y-a, c.Y+a)
		}
	}
	return total
}

// coveredLength returns how much of the vertical segment {x} × [y0, y1]
// the members cover.
func coveredLength(rects []Rect, x, y0, y1 float64) float64 {
	var cov []interval
	for _, m := range rects {
		if a, b := math.Max(m.Min.Y, y0), math.Min(m.Max.Y, y1); m.Min.X <= x && x <= m.Max.X && a < b {
			cov = append(cov, interval{a, b})
		}
	}
	sort.Slice(cov, func(i, j int) bool { return cov[i].a < cov[j].a })
	length, end := 0.0, math.Inf(-1)
	for _, iv := range cov {
		if iv.a > end {
			end = iv.a
		}
		if iv.b > end {
			length += iv.b - end
			end = iv.b
		}
	}
	return length
}

// gaussNodes and gaussWeights are the 16-point Gauss–Legendre rule on
// [-1, 1], found by Newton's method on the Legendre polynomial P₁₆.
var gaussNodes, gaussWeights = func() (x, w []float64) {
	const n = 16
	for i := 0; i < n; i++ {
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (n + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p, prev := 1.0, 0.0 // P_k(z) and P_{k-1}(z)
			for k := 1; k <= n; k++ {
				p, prev = ((2*float64(k)-1)*z*p-(float64(k)-1)*prev)/float64(k), p
			}
			dp = n * (z*p - prev) / (z*z - 1)
			step := p / dp
			z -= step
			if math.Abs(step) < 1e-16 {
				break
			}
		}
		x = append(x, z)
		w = append(w, 2/((1-z*z)*dp*dp))
	}
	return x, w
}()

// checkCircleArea compares IntersectCircleArea with the oracle to 1e-12 of
// the disk's own area, the tolerance Lemma 3.2's unverified area is taken
// at; a zero radius must give exactly zero.
func checkCircleArea(t *testing.T, rects []Rect, c Point, r float64) {
	t.Helper()
	got, want := NewRectUnion(rects...).IntersectCircleArea(c, r), oracleCircleArea(rects, c, r)
	if r == 0 && got != 0 {
		t.Fatalf("IntersectCircleArea(%v, 0) = %v (rects %v)", c, got, rects)
	}
	if math.Abs(got-want) > 1e-12*math.Pi*r*r {
		t.Fatalf("IntersectCircleArea(%v, %v) = %v, oracle = %v (rects %v)", c, r, got, want, rects)
	}
}

// TestCircleAreaOracle pins the oracle itself on areas known in closed
// form: a disk inside one member, a disk covering the union, a half disk
// cut by an edge through the centre, and a quarter disk at a corner.
func TestCircleAreaOracle(t *testing.T) {
	sq := []Rect{NewRect(0, 0, 10, 10)}
	for _, c := range []struct {
		rects []Rect
		c     Point
		r     float64
		want  float64
	}{
		{sq, Pt(5, 5), 2, 4 * math.Pi},
		{sq, Pt(5, 5), 20, 100},
		{sq, Pt(0, 5), 3, 4.5 * math.Pi},
		{sq, Pt(10, 10), 1, math.Pi / 4},
		{[]Rect{NewRect(0, 0, 1, 1), NewRect(1, 0, 2, 1), NewRect(0.25, 0.25, 0.5, 0.5)}, Pt(1, 0.5), 10, 2},
	} {
		if got := oracleCircleArea(c.rects, c.c, c.r); math.Abs(got-c.want) > 1e-13*c.want {
			t.Errorf("oracle(%v, %v, %v) = %v, want %v", c.rects, c.c, c.r, got, c.want)
		}
	}
}

// TestIntersectCircleAreaMatchesOracle runs the oracle against real-valued
// unions of many strips, with disks from well inside one member to beyond
// the whole union.
func TestIntersectCircleAreaMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 20; trial++ {
		u := randomUnion(rng, 10+rng.Intn(60))
		for i := 0; i < 20; i++ {
			checkCircleArea(t, u.Rects(), Pt(rng.Float64()*120-10, rng.Float64()*120-10), 1+rng.Float64()*40)
		}
	}
}

// FuzzIntersectCircleArea checks IntersectCircleArea against the oracle on
// the grid geometry of FuzzRectUnion: byte 0 (mod 64) is the radius in
// quarters, and every probe point is a disk centre. The committed corpus
// holds the degenerate cases by name: a zero radius, a disk inside one
// member, a disk tangent to an edge, a disk covering the whole union,
// abutting and nested members, and a centre on an edge.
func FuzzIntersectCircleArea(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		rects, probes := decodeFuzzUnion(b[1:])
		for _, c := range probes {
			checkCircleArea(t, rects, c, float64(b[0]%64)/4)
		}
	})
}
