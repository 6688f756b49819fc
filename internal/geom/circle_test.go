package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCircleRectAreaContainedRect(t *testing.T) {
	// Rect fully inside the disk: area of rect.
	got := CircleRectArea(Pt(0, 0), 10, NewRect(-1, -1, 1, 1))
	if !almostEqual(got, 4, 1e-9) {
		t.Errorf("contained rect = %v want 4", got)
	}
}

func TestCircleRectAreaContainedCircle(t *testing.T) {
	// Disk fully inside the rect: area of disk.
	got := CircleRectArea(Pt(0, 0), 1, NewRect(-5, -5, 5, 5))
	if !almostEqual(got, math.Pi, 1e-9) {
		t.Errorf("contained circle = %v want pi", got)
	}
}

func TestCircleRectAreaDisjoint(t *testing.T) {
	if got := CircleRectArea(Pt(0, 0), 1, NewRect(5, 5, 6, 6)); got != 0 {
		t.Errorf("disjoint = %v want 0", got)
	}
	// Rect beyond the circle horizontally even though y-ranges overlap.
	if got := CircleRectArea(Pt(0, 0), 1, NewRect(2, -1, 3, 1)); got != 0 {
		t.Errorf("disjoint-x = %v want 0", got)
	}
}

func TestCircleRectAreaHalfPlane(t *testing.T) {
	// Rect covering exactly the right half of the disk.
	got := CircleRectArea(Pt(0, 0), 2, NewRect(0, -5, 5, 5))
	want := math.Pi * 4 / 2
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("half disk = %v want %v", got, want)
	}
}

func TestCircleRectAreaQuadrant(t *testing.T) {
	got := CircleRectArea(Pt(0, 0), 2, NewRect(0, 0, 5, 5))
	want := math.Pi * 4 / 4
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("quadrant = %v want %v", got, want)
	}
}

func TestCircleRectAreaOffCenter(t *testing.T) {
	// Known segment area: disk radius 1 at origin, rect x>=0.5 captures a
	// circular segment with area r^2*(acos(d/r) ) - d*sqrt(r^2-d^2), d=0.5.
	got := CircleRectArea(Pt(0, 0), 1, NewRect(0.5, -5, 5, 5))
	d := 0.5
	want := math.Acos(d) - d*math.Sqrt(1-d*d)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("segment = %v want %v", got, want)
	}
}

func TestCircleRectAreaDegenerate(t *testing.T) {
	if got := CircleRectArea(Pt(0, 0), 0, NewRect(-1, -1, 1, 1)); got != 0 {
		t.Errorf("zero radius = %v", got)
	}
	if got := CircleRectArea(Pt(0, 0), -1, NewRect(-1, -1, 1, 1)); got != 0 {
		t.Errorf("negative radius = %v", got)
	}
	if got := CircleRectArea(Pt(0, 0), 1, NewRect(0, 0, 0, 0)); got != 0 {
		t.Errorf("empty rect = %v", got)
	}
}

// Property: exact area matches Monte Carlo estimation.
func TestCircleRectAreaMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const samples = 60000
	for trial := 0; trial < 25; trial++ {
		c := randomPoint(rng, 3)
		radius := 0.5 + rng.Float64()*3
		r := randomRect(rng, 4)
		got := CircleRectArea(c, radius, r)

		// Sample uniformly inside the rect.
		hit := 0
		for s := 0; s < samples; s++ {
			p := Pt(
				r.Min.X+rng.Float64()*r.Width(),
				r.Min.Y+rng.Float64()*r.Height(),
			)
			if p.Dist(c) <= radius {
				hit++
			}
		}
		est := r.Area() * float64(hit) / samples
		tol := 0.02*r.Area() + 0.02
		if math.Abs(got-est) > tol {
			t.Fatalf("trial %d: exact=%v MC=%v (c=%v r=%v rect=%v)",
				trial, got, est, c, radius, r)
		}
	}
}

// Property: area is monotone in the radius and bounded by both shapes.
func TestCircleRectAreaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		c := randomPoint(rng, 3)
		r := randomRect(rng, 4)
		prev := 0.0
		for _, radius := range []float64{0.2, 0.5, 1, 2, 4, 8, 16} {
			a := CircleRectArea(c, radius, r)
			if a < prev-1e-9 {
				t.Fatalf("trial %d: area decreased with radius", trial)
			}
			if a > r.Area()+1e-9 || a > math.Pi*radius*radius+1e-9 {
				t.Fatalf("trial %d: area %v exceeds bounds", trial, a)
			}
			prev = a
		}
		// Huge radius covers the rect entirely.
		if a := CircleRectArea(c, 100, r); !almostEqual(a, r.Area(), 1e-6) {
			t.Fatalf("trial %d: huge radius area %v want %v", trial, a, r.Area())
		}
	}
}

func TestIntersectCircleAreaUnion(t *testing.T) {
	// Two disjoint unit squares inside a big disk: intersection area = 2.
	u := NewRectUnion(NewRect(0, 0, 1, 1), NewRect(2, 0, 3, 1))
	got := u.IntersectCircleArea(Pt(1.5, 0.5), 10)
	if !almostEqual(got, 2, 1e-9) {
		t.Errorf("union circle area = %v want 2", got)
	}
	// Overlapping squares must not double count.
	u2 := NewRectUnion(NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3))
	got2 := u2.IntersectCircleArea(Pt(1.5, 1.5), 10)
	if !almostEqual(got2, 7, 1e-9) {
		t.Errorf("overlapping union circle area = %v want 7", got2)
	}
}

func TestArcIntegralClamps(t *testing.T) {
	// Integral over the full width equals half the disk area.
	r := 2.0
	at := func(x float64) float64 { return arcIntegral(r, arcPoint{x, chord(r, x)}) }
	full := at(r) - at(-r)
	if !almostEqual(full, math.Pi*r*r/2, 1e-9) {
		t.Errorf("full integral = %v want %v", full, math.Pi*r*r/2)
	}
	// Values outside [-r, r] clamp: the chord there is zero.
	if got := at(100); !almostEqual(got, at(r), 1e-12) {
		t.Errorf("clamp high = %v", got)
	}
	if got := at(-100); !almostEqual(got, at(-r), 1e-12) {
		t.Errorf("clamp low = %v", got)
	}
}
