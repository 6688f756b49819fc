package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randomUnion builds a union of n random rects over a 100×100 area —
// large enough that the circle-area strip index engages.
func randomUnion(rng *rand.Rand, n int) *RectUnion {
	u := &RectUnion{}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := 1+rng.Float64()*9, 1+rng.Float64()*9
		u.Add(NewRect(x, y, x+w, y+h))
	}
	return u
}

// bruteCircleArea is the unpruned reference: sum CircleRectArea over
// every disjoint rect.
func bruteCircleArea(u *RectUnion, c Point, radius float64) float64 {
	total := 0.0
	mbr := RectAround(c, radius)
	for _, d := range u.Disjoint() {
		if !d.Intersects(mbr) {
			continue
		}
		total += CircleRectArea(c, radius, d)
	}
	return total
}

// TestBoundaryDistIndexedMatchesBrute is the differential test for the
// row-strip kernel on real-valued geometry: randomized unions with long
// rows, uncovered bands and deep overlap, probed inside and far outside,
// must satisfy the whole oracle contract FuzzRectUnion checks on grid
// geometry — the pruned outward search equal to the full scan over
// explicit boundary pieces bit for bit.
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

// TestIntersectCircleAreaIndexedMatchesBrute checks the strip-pruned
// circle-area sum against the full scan. Summation order differs, so a
// tiny relative tolerance absorbs float reassociation.
func TestIntersectCircleAreaIndexedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 30; trial++ {
		u := randomUnion(rng, 30+rng.Intn(60))
		if len(u.Disjoint()) < disjointIndexMin {
			continue // decomposition merged below the index threshold; nothing to test
		}
		for i := 0; i < 40; i++ {
			c := Pt(rng.Float64()*120-10, rng.Float64()*120-10)
			r := rng.Float64() * 30
			got := u.IntersectCircleArea(c, r)
			want := bruteCircleArea(u, c, r)
			tol := 1e-9 * math.Max(1, want)
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d: IntersectCircleArea(%v, %v) = %v, brute = %v", trial, c, r, got, want)
			}
		}
	}
}

// TestIndexSurvivesReset checks the invalidate/rebuild cycle: mutating
// the union after queries must produce the same answers as a fresh one.
func TestIndexSurvivesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	u := randomUnion(rng, 64)
	p := Pt(50, 50)
	_ = u.BoundaryDist(p) // build indexes
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
