package geom

import (
	"math"
	"math/rand"
	"testing"
)

// decodeFuzzUnion reads a fuzz input as geometry on a coarse grid, where
// degenerate configurations (shared edges, coincident and zero-area
// members, corner contacts) are the norm rather than measure-zero events:
// byte 0 (mod 13) is the member count, each member takes four bytes
// (corner coordinates mod 16), and the remaining bytes pair up into probe
// points on half-integers in [-2, 17.5] — on grid lines, inside cells and
// outside every possible bounding box.
func decodeFuzzUnion(b []byte) (rects []Rect, probes []Point) {
	if len(b) == 0 {
		return nil, nil
	}
	n := int(b[0]) % 13
	b = b[1:]
	for ; n > 0 && len(b) >= 4; n, b = n-1, b[4:] {
		rects = append(rects, NewRect(float64(b[0]%16), float64(b[1]%16), float64(b[2]%16), float64(b[3]%16)))
	}
	for ; len(b) >= 2; b = b[2:] {
		probes = append(probes, Pt(float64(b[0]%40)/2-2, float64(b[1]%40)/2-2))
	}
	return rects, probes
}

// checkUnionAgainstOracles is the whole contract of the cut kernel on one
// input, against the brute-force references: the union's area read off
// the kernel equals the strips' to rounding; every boundary distance
// equals the brute-force scan over explicit boundary pieces bit for bit
// (same per-axis arithmetic) and stays within rounding of the retired
// Segment.Dist route; and for the window from each probe to the next the
// kernel framed by it is covered exactly when brute-force coverage says
// so, with a covered window's clearance the brute-force distance bit for
// bit.
func checkUnionAgainstOracles(t *testing.T, rects []Rect, probes []Point) {
	t.Helper()
	u := NewRectUnion(rects...)
	if got, want := kernelArea(rects), oracleArea(rects); math.Abs(got-want) > 1e-12*math.Max(1, want) {
		t.Fatalf("kernel area %v, strips %v (rects %v)", got, want, rects)
	}
	segs := bruteBoundary(u)
	for i, p := range probes {
		want := bruteBoundaryDist(segs, Rect{p, p})
		got := u.BoundaryDist(p)
		if got != want {
			t.Fatalf("BoundaryDist(%v) = %v, brute = %v (rects %v)", p, got, want, rects)
		}
		// The projection route carries an absolute error of a few ulps of
		// the coordinates (it reports 9e-16 for a probe on an edge), so
		// the tolerance is relative to the larger of distance and scale.
		if legacy := legacyBoundaryDist(segs, p); got != legacy && math.Abs(got-legacy) > 1e-12*math.Max(1, legacy) {
			t.Fatalf("BoundaryDist(%v) = %v, legacy = %v (rects %v)", p, got, legacy, rects)
		}
		w := NewRect(p.X, p.Y, probes[(i+1)%len(probes)].X, probes[(i+1)%len(probes)].Y)
		d, ok := windowClearance(rects, w)
		if want := bruteBoundaryDist(segs, w); ok != bruteCovers(w, rects) || (ok && d != want) {
			t.Fatalf("window %v: clearance %v, covered %v; brute covered %v, distance %v (rects %v)",
				w, d, ok, bruteCovers(w, rects), want, rects)
		}
	}
}

// FuzzRectUnion drives checkUnionAgainstOracles. The committed corpus
// (testdata/fuzz/FuzzRectUnion) holds the degenerate families by name:
// zero-area, coincident, abutting, nested, corner-touching and
// disconnected members, and a ring with an interior hole, each probed on
// the boundary, outside the bounding box and — for the ring — in the hole.
func FuzzRectUnion(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rects, probes := decodeFuzzUnion(b)
		checkUnionAgainstOracles(t, rects, probes)
	})
}

// checkLocalClearance is the contract the query-local NNV rests on
// (DESIGN.md §9.3). Cut the members out of the square just wider than r
// around q (Uncovered), stopping once nothing is left, as NNV does. Then
// the distance from q to what is left is zero when the union does not
// contain q, and otherwise q's clearance in the union — the brute-force
// boundary distance over segs = bruteBoundary(the union) — bit for bit
// whenever that is at most r, and a bound in (r, clearance] otherwise;
// and the disk around q of radius at most r has the uncovered area the
// union leaves of it (IntersectCircleArea, the kernel framed by the disk's
// bounding square, which TestIntersectCircleAreaMatchesOracle holds to
// its oracle) — summed over other pieces, so equal to 1e-12 of the disk's
// own area, the scale of the terms (a disk that only grazes the union
// leaves a residue of ±1e-15 in π r² − covered, not 0).
func checkLocalClearance(t *testing.T, rects []Rect, segs []Segment, q Point, r float64) {
	t.Helper()
	full := NewRectUnion(rects...)
	var u Uncovered
	u.Reset(Rect{q, q}.GrowPast(r))
	u.CutAll(rects)
	want := 0.0
	if full.Contains(q) {
		want = bruteBoundaryDist(segs, Rect{q, q})
	}
	got := u.Dist(Rect{q, q})
	switch {
	case want <= r && got != want:
		t.Fatalf("local Dist(%v) = %v, full clearance = %v within r=%v (rects %v)", q, got, want, r, rects)
	case want > r && !(got > r && got <= want):
		t.Fatalf("local Dist(%v) = %v, want a bound in (%v, %v] (rects %v)", q, got, r, want, rects)
	}
	for _, d := range [3]float64{r, r / 2, r / 7} {
		want, got := math.Pi*d*d-full.IntersectCircleArea(q, d), u.UnverifiedArea(q, d)
		if math.Abs(got-want) > 1e-12*math.Pi*d*d {
			t.Fatalf("local UnverifiedArea(%v, %v) = %v, full = %v (r=%v rects %v)", q, d, got, want, r, rects)
		}
	}
}

// TestUncoveredMatchesUnion applies checkLocalClearance on real-valued
// unions of 30–90 members, probed inside and far outside at radii up to
// a third of the area: many members meet the square and cut it into many
// pieces.
func TestUncoveredMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 30; trial++ {
		u := randomUnion(rng, 30+rng.Intn(60))
		segs := bruteBoundary(u)
		for i := 0; i < 40; i++ {
			checkLocalClearance(t, u.Rects(), segs, Pt(rng.Float64()*120-10, rng.Float64()*120-10), rng.Float64()*30)
		}
	}
}

// FuzzLocalClearance drives checkLocalClearance over the grid geometry of
// FuzzRectUnion (the committed corpus is that target's, under this
// target's name): every probe is a query point, with the radii 0, a
// half-integer, and the distance to the next probe — so r lands on member
// edges and corners, short of them, and beyond the whole union.
func FuzzLocalClearance(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rects, probes := decodeFuzzUnion(b)
		segs := bruteBoundary(NewRectUnion(rects...))
		for i, q := range probes {
			next := probes[(i+1)%len(probes)]
			for _, r := range [3]float64{0, float64(len(b)%9) / 2, q.Dist(next)} {
				checkLocalClearance(t, rects, segs, q, r)
			}
		}
	})
}

// TestBoundaryDistHistoryIndependent pins the one-path rule: the answer
// is a function of the member multiset alone — the same bits whether the
// probe is the first call on a fresh union, follows other queries, or
// runs on a union that reached the multiset by CopyFrom or by Reset and a
// shuffled re-Add over another union's state (the kernel cuts in another
// order there, into other pieces).
func TestBoundaryDistHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		members := make([]Rect, 2+rng.Intn(40))
		for i := range members {
			members[i] = quantRect(rng)
		}
		shuffled := append([]Rect(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		warmed := NewRectUnion(members...)
		warmed.IntersectCircleArea(Pt(4, 4), 3)

		copied := &RectUnion{}
		copied.CopyFrom(warmed)

		readded := NewRectUnion(quantRect(rng), quantRect(rng))
		readded.BoundaryDist(Pt(1, 1))
		readded.Reset()
		for _, r := range shuffled {
			readded.Add(r)
		}

		for probe := 0; probe < 40; probe++ {
			p := Pt(rng.Float64()*10-1, rng.Float64()*10-1)
			if rng.Intn(3) == 0 {
				p = Pt(math.Round(p.X*8)/8, math.Round(p.Y*8)/8) // on the member lattice
			}
			want := NewRectUnion(members...).BoundaryDist(p) // first call on a fresh union
			for name, u := range map[string]*RectUnion{
				"warmed": warmed, "copied": copied, "re-added": readded,
			} {
				if got := u.BoundaryDist(p); got != want {
					t.Fatalf("trial %d: %s union BoundaryDist(%v) = %v, fresh = %v", trial, name, p, got, want)
				}
			}
		}
	}
}
