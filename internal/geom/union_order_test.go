package geom

import (
	"math"
	"math/rand"
	"testing"
)

// quantRect draws a random rectangle with coordinates quantized to
// eighths on [0, 8], so random sequences frequently share edge
// coordinates and occasionally coincide exactly (duplicate members).
func quantRect(rng *rand.Rand) Rect {
	q := func(v float64) float64 { return math.Round(v*8) / 8 }
	x0, y0 := q(rng.Float64()*7), q(rng.Float64()*7)
	w, h := q(0.125+rng.Float64()*3), q(0.125+rng.Float64()*3)
	if w == 0 {
		w = 0.125
	}
	if h == 0 {
		h = 0.125
	}
	return NewRect(x0, y0, x0+w, y0+h)
}

func rectsEqual(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareAgainst checks a union against a reference holding the same
// multiset reached another way: the disjoint decomposition must match
// exactly (it is canonical — a pure function of the member multiset),
// and every derived query must return bit-identical values.
func compareAgainst(t *testing.T, tag string, inc, ref *RectUnion, rng *rand.Rand) {
	t.Helper()
	if !rectsEqual(inc.Disjoint(), ref.Disjoint()) {
		t.Fatalf("%s: disjoint mismatch\n inc: %v\n ref: %v", tag, inc.Disjoint(), ref.Disjoint())
	}
	if ia, ra := inc.Area(), ref.Area(); ia != ra {
		t.Fatalf("%s: area %v != %v", tag, ia, ra)
	}
	for probe := 0; probe < 6; probe++ {
		p := Pt(rng.Float64()*10-1, rng.Float64()*10-1)
		if di, dr := inc.BoundaryDist(p), ref.BoundaryDist(p); di != dr {
			t.Fatalf("%s: BoundaryDist(%v) %v != %v", tag, p, di, dr)
		}
		ci, oki := inc.Clearance(p)
		if cr, okr := ref.Clearance(p); ci != cr || oki != okr {
			t.Fatalf("%s: Clearance(%v) %v,%v != %v,%v", tag, p, ci, oki, cr, okr)
		}
		r := 0.25 + rng.Float64()*4
		if ai, ar := inc.IntersectCircleArea(p, r), ref.IntersectCircleArea(p, r); ai != ar {
			t.Fatalf("%s: IntersectCircleArea(%v, %v) %v != %v", tag, p, r, ai, ar)
		}
		w := quantRect(rng)
		if ci, cr := inc.CoversRect(w), ref.CoversRect(w); ci != cr {
			t.Fatalf("%s: CoversRect(%v) %v != %v", tag, w, ci, cr)
		}
		if ai, ar := inc.IntersectRectArea(w), ref.IntersectRectArea(w); ai != ar {
			t.Fatalf("%s: IntersectRectArea(%v) %v != %v", tag, w, ai, ar)
		}
		ci, oki = inc.ClearanceRect(w)
		if cr, okr := ref.ClearanceRect(w); ci != cr || oki != okr {
			t.Fatalf("%s: ClearanceRect(%v) %v,%v != %v,%v", tag, w, ci, oki, cr, okr)
		}
	}
}

// TestRectUnionOrderIndependence pins the property the goldens rely on:
// the decomposition and every derived query are functions of the member
// MULTISET only, so a union that was probed,
// Reset and refilled matches one built fresh from the same members in
// any other order — duplicates included.
func TestRectUnionOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := &RectUnion{}
	for trial := 0; trial < 40; trial++ {
		members := make([]Rect, 1+rng.Intn(40))
		for i := range members {
			if i > 0 && rng.Float64() < 0.15 {
				members[i] = members[rng.Intn(i)] // duplicate member
			} else {
				members[i] = quantRect(rng)
			}
		}
		reused.Reset()
		for _, r := range members {
			reused.Add(r)
		}
		shuffled := append([]Rect(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		compareAgainst(t, "shuffled", reused, NewRectUnion(shuffled...), rng)
	}
}
