package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: circle∩rect area is translation invariant.
func TestQuickCircleRectAreaTranslationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomPoint(rng, 5)
		r := 0.5 + rng.Float64()*3
		rect := randomRect(rng, 5)
		base := CircleRectArea(c, r, rect)
		shift := randomPoint(rng, 100)
		moved := CircleRectArea(c.Add(shift), r, Rect{
			Min: rect.Min.Add(shift),
			Max: rect.Max.Add(shift),
		})
		return math.Abs(base-moved) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding a rectangle to a union never shrinks its area as the
// kernel measures it (the strips' area), and the union area never exceeds
// the sum of member areas.
func TestQuickUnionAreaMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []Rect
		var prev, sum float64
		for i := 0; i < 1+rng.Intn(6); i++ {
			r := randomRect(rng, 5)
			rects = append(rects, r)
			area := kernelArea(rects)
			if area < prev-1e-9 || math.Abs(area-oracleArea(rects)) > 1e-9 {
				return false
			}
			sum += r.Area()
			if area > sum+1e-9 {
				return false
			}
			prev = area
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Uncovered.UnverifiedArea is monotone in radius, bounded by the
// disk, and the disk less the union's part of it.
func TestQuickUnverifiedAreaBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []Rect
		for i := 0; i < rng.Intn(5); i++ {
			rects = append(rects, randomRect(rng, 4))
		}
		un := NewRectUnion(rects...)
		c := randomPoint(rng, 4)
		var u Uncovered
		u.Reset(Rect{c, c}.GrowPast(4))
		u.CutAll(rects)
		prev := 0.0
		for _, r := range []float64{0.5, 1, 2, 4} {
			a := u.UnverifiedArea(c, r)
			if a < 0 || a > math.Pi*r*r+1e-9 || math.Abs(a-(math.Pi*r*r-un.IntersectCircleArea(c, r))) > 1e-9 {
				return false
			}
			if a < prev-1e-9 {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a union's own members leave nothing of any window inside the
// union.
func TestQuickSubtractSelfCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRect(rng, 5)
		// A window fully inside r is fully covered by covers=[r].
		w := Rect{
			Min: Pt(r.Min.X+rng.Float64()*r.Width()/2, r.Min.Y+rng.Float64()*r.Height()/2),
		}
		w.Max = Pt(
			w.Min.X+rng.Float64()*(r.Max.X-w.Min.X),
			w.Min.Y+rng.Float64()*(r.Max.Y-w.Min.Y),
		)
		return len(cutPieces(w, []Rect{r})) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
