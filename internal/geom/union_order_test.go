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
// multiset reached another way. The kernel cuts the members in the order
// each union holds them, into other pieces, yet every verdict and
// distance must be the same bits: Contains, BoundaryDist, the distance
// from a probe to what is left of the square around it, and a window's
// covered verdict and clearance. Areas sum other pieces, so they agree to
// 1e-12 of their scale.
func compareAgainst(t *testing.T, tag string, inc, ref *RectUnion, rng *rand.Rand) {
	t.Helper()
	if ia, ra := kernelArea(inc.Rects()), kernelArea(ref.Rects()); math.Abs(ia-ra) > 1e-12*ra {
		t.Fatalf("%s: area %v != %v", tag, ia, ra)
	}
	var k Uncovered
	local := func(u *RectUnion, p Point, r float64) float64 {
		k.Reset(Rect{p, p}.GrowPast(r))
		k.CutAll(u.Rects())
		return k.Dist(Rect{p, p})
	}
	for probe := 0; probe < 6; probe++ {
		p := Pt(rng.Float64()*10-1, rng.Float64()*10-1)
		if ci, cr := inc.Contains(p), ref.Contains(p); ci != cr {
			t.Fatalf("%s: Contains(%v) %v != %v", tag, p, ci, cr)
		}
		if di, dr := inc.BoundaryDist(p), ref.BoundaryDist(p); di != dr {
			t.Fatalf("%s: BoundaryDist(%v) %v != %v", tag, p, di, dr)
		}
		r := 0.25 + rng.Float64()*4
		if di, dr := local(inc, p, r), local(ref, p, r); di != dr {
			t.Fatalf("%s: Dist(%v) in the square of reach %v: %v != %v", tag, p, r, di, dr)
		}
		if ai, ar := inc.IntersectCircleArea(p, r), ref.IntersectCircleArea(p, r); math.Abs(ai-ar) > 1e-12*math.Pi*r*r {
			t.Fatalf("%s: IntersectCircleArea(%v, %v) %v != %v", tag, p, r, ai, ar)
		}
		w := quantRect(rng)
		ci, oki := windowClearance(inc.Rects(), w)
		if cr, okr := windowClearance(ref.Rects(), w); ci != cr || oki != okr {
			t.Fatalf("%s: window %v clearance %v,%v != %v,%v", tag, w, ci, oki, cr, okr)
		}
	}
}

// TestRectUnionOrderIndependence pins the property the goldens rely on:
// every verdict and distance is a function of the member MULTISET only,
// so a union that was probed, Reset and refilled matches one built fresh
// from the same members in any other order — duplicates included.
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
