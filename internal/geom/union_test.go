package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestRectUnionContains(t *testing.T) {
	u := NewRectUnion(NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3))
	for _, p := range []Point{Pt(0.5, 0.5), Pt(2.5, 2.5), Pt(2, 0.5), Pt(1.5, 1.5)} {
		if !u.Contains(p) {
			t.Errorf("Contains(%v) = false", p)
		}
	}
	for _, p := range []Point{Pt(2.5, 0.5), Pt(0.5, 2.5), Pt(-1, 0)} {
		if u.Contains(p) {
			t.Errorf("Contains(%v) = true", p)
		}
	}
}

func TestRectUnionDropsDegenerate(t *testing.T) {
	u := NewRectUnion(NewRect(0, 0, 0, 5), NewRect(1, 1, 2, 2))
	if n := len(u.Rects()); n != 1 {
		t.Fatalf("%d members, degenerate rect not dropped", n)
	}
}

// kernelArea is the area of the union of rects as the kernel measures
// it: the bounding box less what the members leave of it.
func kernelArea(rects []Rect) float64 {
	live := NewRectUnion(rects...).Rects()
	return Bounds(live).Area() - subtractArea(cutPieces(Bounds(live), live))
}

func TestRectUnionAreaOverlap(t *testing.T) {
	for _, c := range []struct {
		name  string
		rects []Rect
		want  float64
	}{
		// Two 2x2 squares overlapping in a 1x1 square: area = 4+4-1 = 7.
		{"overlap", []Rect{NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3)}, 7},
		{"identical", []Rect{NewRect(0, 0, 2, 3), NewRect(0, 0, 2, 3)}, 6},
		{"disjoint", []Rect{NewRect(0, 0, 1, 1), NewRect(5, 5, 7, 6)}, 3},
	} {
		if got := kernelArea(c.rects); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: kernel area = %v want %v", c.name, got, c.want)
		}
		if got := oracleArea(c.rects); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: strip area = %v want %v", c.name, got, c.want)
		}
	}
}

// The kernel's pieces of a frame are a disjoint decomposition of what the
// members leave of it: pairwise interior-disjoint, and a probe off their
// edges lies in a piece exactly when it lies in the frame and in no member.
func TestDisjointDecompositionIsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randomRect(rng, 5)
		}
		u := NewRectUnion(rects...)
		frame := randomRect(rng, 6)
		parts := cutPieces(frame, rects)
		// Pairwise interior-disjoint.
		for i := range parts {
			for j := i + 1; j < len(parts); j++ {
				if inter, ok := parts[i].Intersect(parts[j]); ok {
					t.Fatalf("trial %d: overlapping parts %v and %v share %v",
						trial, parts[i], parts[j], inter)
				}
			}
		}
		// Coverage agrees with membership at random probes.
		for k := 0; k < 50; k++ {
			p := randomPoint(rng, 6)
			uncovered := frame.Contains(p) && !u.Contains(p)
			inParts := false
			for _, r := range parts {
				if r.Contains(p) {
					inParts = true
					break
				}
			}
			// Boundary-of-part points can differ from strict membership
			// only on measure-zero sets; skip points on part boundaries.
			onEdge := false
			for _, r := range parts {
				if r.Contains(p) && !r.ContainsStrict(p) {
					onEdge = true
				}
			}
			if !onEdge && uncovered != inParts {
				t.Fatalf("trial %d: probe %v uncovered=%v parts=%v", trial, p, uncovered, inParts)
			}
		}
	}
}

func TestBoundaryDistSingleRect(t *testing.T) {
	u := NewRectUnion(NewRect(0, 0, 4, 2))
	if got := u.BoundaryDist(Pt(2, 1)); !almostEqual(got, 1, 1e-12) {
		t.Errorf("center clearance = %v want 1", got)
	}
	if got := u.BoundaryDist(Pt(6, 1)); !almostEqual(got, 2, 1e-12) {
		t.Errorf("outside distance = %v want 2", got)
	}
}

func TestBoundaryAdjacentRectsSharedEdgeInterior(t *testing.T) {
	// Two rects stacked so they share the edge y=1: the shared edge is
	// interior to the union, so clearance at the shared edge's midpoint is
	// governed by the outer boundary.
	u := NewRectUnion(NewRect(0, 0, 2, 1), NewRect(0, 1, 2, 2))
	if !u.Contains(Pt(1, 1)) {
		t.Fatal("point on shared edge must be inside union")
	}
	got := u.BoundaryDist(Pt(1, 1))
	if !almostEqual(got, 1, 1e-12) {
		t.Errorf("clearance at shared edge = %v want 1", got)
	}
}

// Outside the members q lies in a piece of any frame around it, so its
// distance to the pieces is zero: no clearance.
func TestClearanceOutside(t *testing.T) {
	q := Pt(5, 5)
	var u Uncovered
	for _, reach := range []float64{0, 1, 10} {
		u.Reset(Rect{q, q}.GrowPast(reach))
		u.Cut(NewRect(0, 0, 1, 1))
		if d := u.Dist(Rect{q, q}); d != 0 {
			t.Errorf("reach %v: Dist outside the union = %v, want 0", reach, d)
		}
	}
}

func TestClearanceLShape(t *testing.T) {
	// L-shape: horizontal bar [0,4]x[0,1] plus vertical bar [0,1]x[0,4].
	u := NewRectUnion(NewRect(0, 0, 4, 1), NewRect(0, 0, 1, 4))
	// Point in the inner corner region: nearest boundary is the re-entrant
	// corner at (1,1).
	p := Pt(1.5, 0.5)
	if !u.Contains(p) {
		t.Fatal("p must be inside")
	}
	got := u.BoundaryDist(p)
	// Candidate boundaries: y=0 (0.5), x=1 above y=1 region? The segment
	// x=1 for y in [1,4] is boundary; distance = hypot(0.5 from x.. ) =
	// distance to point (1,1) = sqrt(0.25+0.25).
	want := 0.5 // bottom edge y=0 is nearer than the corner (0.707)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("clearance = %v want %v", got, want)
	}
	// Near the top of the horizontal bar: the bar's top edge y=1 is
	// boundary for x >= 1 (only x in [0,1] is covered by the vertical bar).
	p2 := Pt(1.2, 0.8)
	got2 := u.BoundaryDist(p2)
	want2 := 0.2 // vertical distance to the boundary segment y=1, x in [1,4]
	if !almostEqual(got2, want2, 1e-12) {
		t.Errorf("clearance near corner = %v want %v", got2, want2)
	}
	// A point deep inside the vertical bar sees the corner (1,1) only via
	// the vertical boundary segment x=1, y in [1,4].
	p3 := Pt(0.8, 1.4)
	got3 := u.BoundaryDist(p3)
	want3 := 0.2 // horizontal distance to boundary segment x=1, y in [1,4]
	if !almostEqual(got3, want3, 1e-12) {
		t.Errorf("clearance in vertical bar = %v want %v", got3, want3)
	}
}

// Property: clearance equals a dense-sampling estimate of the distance to
// the union boundary.
func TestBoundaryDistMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randomRect(rng, 4)
		}
		u := NewRectUnion(rects...)
		p := randomPoint(rng, 5)
		got := u.BoundaryDist(p)

		// Reference: min distance over densely sampled boundary points.
		// Sample each rect edge densely and keep points that are NOT
		// interior to the union (tested by probing both sides).
		best := math.Inf(1)
		const steps = 400
		for _, r := range rects {
			corners := r.Corners()
			for e := 0; e < 4; e++ {
				a, b := corners[e], corners[(e+1)%4]
				for s := 0; s <= steps; s++ {
					tt := float64(s) / steps
					q := Pt(a.X+tt*(b.X-a.X), a.Y+tt*(b.Y-a.Y))
					if isBoundarySample(u, q) {
						if d := p.Dist(q); d < best {
							best = d
						}
					}
				}
			}
		}
		if math.IsInf(best, 1) {
			continue // all edges interior — cannot happen for finite unions
		}
		// The sampled estimate can only overestimate the true distance by
		// up to one sampling step.
		if got > best+1e-9 {
			t.Fatalf("trial %d: BoundaryDist=%v exceeds sampled %v (p=%v rects=%v)",
				trial, got, best, p, rects)
		}
		if best-got > 0.05 {
			t.Fatalf("trial %d: BoundaryDist=%v far below sampled %v (p=%v rects=%v)",
				trial, got, best, p, rects)
		}
	}
}

// isBoundarySample reports whether q is (approximately) on the boundary of
// the union: q is in the closed union but an epsilon-neighborhood pokes
// outside.
func isBoundarySample(u *RectUnion, q Point) bool {
	if !u.Contains(q) {
		return false
	}
	const eps = 1e-7
	for _, d := range []Point{{eps, 0}, {-eps, 0}, {0, eps}, {0, -eps},
		{eps, eps}, {eps, -eps}, {-eps, eps}, {-eps, -eps}} {
		if !u.Contains(q.Add(d)) {
			return true
		}
	}
	return false
}

// A window is covered when the kernel framed by it leaves no piece, for a
// window of any extent — segments and points included.
func TestCoversRect(t *testing.T) {
	rects := []Rect{NewRect(0, 0, 2, 2), NewRect(2, 0, 4, 2)}
	for _, c := range []struct {
		name string
		w    Rect
		want bool
	}{
		{"window spanning both rects", NewRect(0.5, 0.5, 3.5, 1.5), true},
		{"window poking above the union", NewRect(0.5, 0.5, 3.5, 2.5), false},
		{"window equal to the union", NewRect(0, 0, 4, 2), true},
		{"segment along the seam", NewRect(2, 0, 2, 2), true},
		{"segment along the top edge", NewRect(0, 2, 4, 2), true},
		{"segment leaving the union", NewRect(1, 1, 1, 3), false},
		{"point on a corner", NewRect(4, 2, 4, 2), true},
		{"point outside", NewRect(5, 1, 5, 1), false},
	} {
		if got := len(cutPieces(c.w, rects)) == 0; got != c.want || bruteCovers(c.w, rects) != c.want {
			t.Errorf("%s: kernel covered = %v, brute = %v, want %v", c.name, got, bruteCovers(c.w, rects), c.want)
		}
	}
}

// The kernel framed by a window w cuts it as Algorithm 3 reduces w.
func TestSubtractRect(t *testing.T) {
	w := NewRect(0, 0, 4, 4)
	// Cover left half: remainder is right half.
	rem := cutPieces(w, []Rect{NewRect(0, 0, 2, 4)})
	if len(rem) != 1 || rem[0] != NewRect(2, 0, 4, 4) {
		t.Fatalf("pieces of half = %v", rem)
	}
	// Full cover: empty remainder.
	if rem := cutPieces(w, []Rect{NewRect(-1, -1, 5, 5)}); len(rem) != 0 {
		t.Fatalf("pieces of full = %v", rem)
	}
	// No cover: the window itself.
	rem = cutPieces(w, []Rect{NewRect(10, 10, 11, 11)})
	if len(rem) != 1 || rem[0] != w {
		t.Fatalf("pieces of none = %v", rem)
	}
	// Hole in the middle: the bottom band, two side pieces, the top band.
	rem = cutPieces(w, []Rect{NewRect(1, 1, 3, 3)})
	want := []Rect{NewRect(0, 0, 4, 1), NewRect(0, 1, 1, 3), NewRect(3, 1, 4, 3), NewRect(0, 3, 4, 4)}
	if !rectsEqual(rem, want) {
		t.Fatalf("pieces of hole = %v, want %v", rem, want)
	}
}

// Property: the kernel yields disjoint pieces whose area equals
// area(w) - area(w ∩ union).
func TestSubtractRectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		w := randomRect(rng, 5)
		n := rng.Intn(5)
		covers := make([]Rect, n)
		for i := range covers {
			covers[i] = randomRect(rng, 5)
		}
		rem := cutPieces(w, covers)
		remArea := 0.0
		for i, r := range rem {
			remArea += r.Area()
			if !w.ContainsRect(r) {
				t.Fatalf("trial %d: piece %v outside window %v", trial, r, w)
			}
			for j := i + 1; j < len(rem); j++ {
				if _, ok := r.Intersect(rem[j]); ok {
					t.Fatalf("trial %d: overlapping pieces", trial)
				}
			}
		}
		want := w.Area() - oracleArea(clipped(covers, w))
		if !almostEqual(remArea, want, 1e-9) {
			t.Fatalf("trial %d: remainder area %v want %v", trial, remArea, want)
		}
	}
}

// clipped returns the parts of rects inside w of positive area.
func clipped(rects []Rect, w Rect) []Rect {
	var out []Rect
	for _, r := range rects {
		if c, ok := r.Intersect(w); ok {
			out = append(out, c)
		}
	}
	return out
}

// The area of w ∩ union is area(w) less the area of the kernel's pieces,
// as SBWQ's covered fraction reads it.
func TestIntersectRectArea(t *testing.T) {
	rects := []Rect{NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3)}
	for _, c := range []struct {
		w    Rect
		want float64
	}{
		{NewRect(0, 0, 3, 3), 7},
		{NewRect(10, 10, 11, 11), 0},
		{NewRect(0, 0, 1, 1), 1},
	} {
		got := c.w.Area() - subtractArea(cutPieces(c.w, rects))
		if !almostEqual(got, c.want, 1e-12) || !almostEqual(oracleArea(clipped(rects, c.w)), c.want, 1e-12) {
			t.Errorf("w %v: covered area = %v, strips %v, want %v", c.w, got, oracleArea(clipped(rects, c.w)), c.want)
		}
	}
}

func TestUnverifiedAreaFullyCovered(t *testing.T) {
	// Disk entirely inside a member: nothing of the square is left and the
	// unverified area is exactly 0.
	var u Uncovered
	square := Rect{}.GrowPast(2)
	u.Reset(square)
	if !u.Cut(NewRect(-10, -10, 10, 10)) {
		t.Fatalf("a member covering the square left pieces %v", u.Pieces())
	}
	if got := u.UnverifiedArea(Pt(0, 0), 2); got != 0 {
		t.Errorf("covered disk unverified area = %v", got)
	}
	// Nothing cut: unverified area is the whole disk.
	u.Reset(square)
	want := math.Pi * 4
	if got := u.UnverifiedArea(Pt(0, 0), 2); !almostEqual(got, want, 1e-9) {
		t.Errorf("uncovered disk area = %v want %v", got, want)
	}
}

func TestSubtractIntervals(t *testing.T) {
	base := interval{0, 10}
	cases := []struct {
		cov  []interval
		want []interval
	}{
		{nil, []interval{{0, 10}}},
		{[]interval{{2, 4}}, []interval{{0, 2}, {4, 10}}},
		{[]interval{{-5, 15}}, nil},
		{[]interval{{0, 5}, {5, 10}}, nil},
		{[]interval{{8, 20}, {-3, 1}}, []interval{{1, 8}}},
		{[]interval{{3, 4}, {1, 2}}, []interval{{0, 1}, {2, 3}, {4, 10}}},
	}
	for i, c := range cases {
		got := subtractIntervals(base, append([]interval(nil), c.cov...))
		if len(got) != len(c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
			continue
		}
		for j := range got {
			if !almostEqual(got[j].a, c.want[j].a, 1e-12) ||
				!almostEqual(got[j].b, c.want[j].b, 1e-12) {
				t.Errorf("case %d: got %v want %v", i, got, c.want)
			}
		}
	}
}

// randomUnion builds a union of n random rects over a 100×100 area: long
// rows, uncovered bands and deep overlap.
func randomUnion(rng *rand.Rand, n int) *RectUnion {
	u := &RectUnion{}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := 1+rng.Float64()*9, 1+rng.Float64()*9
		u.Add(NewRect(x, y, x+w, y+h))
	}
	return u
}

// TestBoundaryDistIndexedMatchesBrute is the differential test for the
// cut kernel on real-valued geometry: randomized unions with long rows,
// uncovered bands and deep overlap, probed inside and far outside, must
// satisfy the whole oracle contract FuzzRectUnion checks on grid geometry
// — distances to the pieces equal to the full scan over explicit boundary
// pieces bit for bit.
func TestBoundaryDistIndexedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		u := randomUnion(rng, 30+rng.Intn(60))
		if trial%2 == 1 {
			// Every other union is one dense blob: few spans, deep probes.
			u.Reset()
			for i := 0; i < 50; i++ {
				x, y := 30+rng.Float64()*20, 30+rng.Float64()*20
				u.Add(NewRect(x, y, x+5+rng.Float64()*15, y+5+rng.Float64()*15))
			}
		}
		probes := make([]Point, 50)
		for i := range probes {
			probes[i] = Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		}
		checkUnionAgainstOracles(t, u.Rects(), probes)
	}
}

// TestIndexSurvivesReset checks reuse: a union reset and refilled after
// queries must produce the same answers as a fresh one.
func TestIndexSurvivesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	u := randomUnion(rng, 64)
	p := Pt(50, 50)
	_ = u.BoundaryDist(p)
	_ = u.IntersectCircleArea(p, 20)

	// Mutate: reset and load a different union into the same instance.
	rects := make([]Rect, 0, 40)
	for i := 0; i < 40; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		rects = append(rects, NewRect(x, y, x+5, y+5))
	}
	u.Reset()
	fresh := &RectUnion{}
	for _, r := range rects {
		u.Add(r)
		fresh.Add(r)
	}
	for i := 0; i < 50; i++ {
		q := Pt(rng.Float64()*100, rng.Float64()*100)
		if got, want := u.BoundaryDist(q), fresh.BoundaryDist(q); got != want {
			t.Fatalf("reused union BoundaryDist(%v) = %v, fresh = %v", q, got, want)
		}
		r := rng.Float64() * 25
		got, want := u.IntersectCircleArea(q, r), fresh.IntersectCircleArea(q, r)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("reused union IntersectCircleArea(%v, %v) = %v, fresh = %v", q, r, got, want)
		}
	}
}
