package mobility

import (
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func mustWaypoint(t *testing.T, area geom.Rect, minS, maxS, pause float64) *Waypoint {
	t.Helper()
	m, err := NewWaypoint(area, minS, maxS, pause)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewWaypointValidation(t *testing.T) {
	area := geom.NewRect(0, 0, 10, 10)
	if _, err := NewWaypoint(geom.Rect{}, 1, 2, 0); err == nil {
		t.Error("empty area must be rejected")
	}
	if _, err := NewWaypoint(area, 0, 2, 0); err == nil {
		t.Error("zero min speed must be rejected")
	}
	if _, err := NewWaypoint(area, 3, 2, 0); err == nil {
		t.Error("inverted speed range must be rejected")
	}
	if _, err := NewWaypoint(area, 1, 2, -1); err == nil {
		t.Error("negative pause must be rejected")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name              string
		area              geom.Rect
		minS, maxS, pause float64
	}{
		{"NaN area", geom.NewRect(0, 0, nan, 10), 1, 2, 0},
		{"infinite area", geom.NewRect(0, -inf, 10, 10), 1, 2, 0},
		{"NaN min speed", area, nan, 2, 0},
		{"NaN max speed", area, 1, nan, 0},
		{"infinite max speed", area, 1, inf, 0},
		{"NaN pause", area, 1, 2, nan},
		{"infinite pause", area, 1, 2, inf},
	} {
		if _, err := NewWaypoint(c.area, c.minS, c.maxS, c.pause); err == nil {
			t.Errorf("%s must be rejected", c.name)
		}
	}
}

func TestInitInsideArea(t *testing.T) {
	area := geom.NewRect(-5, -5, 5, 5)
	m := mustWaypoint(t, area, 1, 2, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := m.Init(rng)
		if !area.Contains(s.Pos) || !area.Contains(s.Dest) {
			t.Fatalf("init outside area: %+v", s)
		}
		if s.Speed < 1 || s.Speed > 2 {
			t.Fatalf("speed %v out of range", s.Speed)
		}
	}
}

func TestStepStaysInsideArea(t *testing.T) {
	area := geom.NewRect(0, 0, 20, 20)
	m := mustWaypoint(t, area, 0.5, 2, 1)
	rng := rand.New(rand.NewSource(2))
	s := m.Init(rng)
	for i := 0; i < 5000; i++ {
		m.Step(&s, 0.7, rng)
		if !area.Contains(s.Pos) {
			t.Fatalf("step %d left the area: %v", i, s.Pos)
		}
	}
}

func TestStepDistanceBoundedBySpeed(t *testing.T) {
	area := geom.NewRect(0, 0, 100, 100)
	m := mustWaypoint(t, area, 1, 3, 0)
	rng := rand.New(rand.NewSource(3))
	s := m.Init(rng)
	for i := 0; i < 1000; i++ {
		before := s.Pos
		dt := 0.5
		m.Step(&s, dt, rng)
		// Straight-line displacement can't exceed max speed * dt (turning
		// at a waypoint only shortens it).
		if before.Dist(s.Pos) > 3*dt+1e-9 {
			t.Fatalf("step %d moved too far: %v", i, before.Dist(s.Pos))
		}
	}
}

func TestPauseConsumesTime(t *testing.T) {
	area := geom.NewRect(0, 0, 10, 10)
	m := mustWaypoint(t, area, 1, 1, 0)
	rng := rand.New(rand.NewSource(4))
	s := m.Init(rng)
	s.PauseLeft = 5
	before := s.Pos
	m.Step(&s, 3, rng)
	if s.Pos != before {
		t.Fatal("host moved while paused")
	}
	if !almostEqual(s.PauseLeft, 2, 1e-12) {
		t.Fatalf("pause left = %v", s.PauseLeft)
	}
	// Pause runs out mid-step: movement resumes for the remainder.
	m.Step(&s, 4, rng)
	if s.Pos == before {
		t.Fatal("host did not move after pause expired")
	}
}

func TestHeading(t *testing.T) {
	s := State{Pos: geom.Pt(0, 0), Dest: geom.Pt(3, 4), Speed: 1}
	h := s.Heading()
	if !almostEqual(h.X, 0.6, 1e-12) || !almostEqual(h.Y, 0.8, 1e-12) {
		t.Fatalf("Heading = %v", h)
	}
	if !almostEqual(h.Norm(), 1, 1e-12) {
		t.Fatalf("heading not unit: %v", h.Norm())
	}
	// Paused host has no heading.
	s.PauseLeft = 1
	if s.Heading() != (geom.Point{}) {
		t.Error("paused host must have zero heading")
	}
	// At destination: zero heading.
	s2 := State{Pos: geom.Pt(1, 1), Dest: geom.Pt(1, 1)}
	if s2.Heading() != (geom.Point{}) {
		t.Error("arrived host must have zero heading")
	}
}

func TestLongRunCoversArea(t *testing.T) {
	// Statistical: over a long run, the host visits all four quadrants.
	area := geom.NewRect(0, 0, 10, 10)
	m := mustWaypoint(t, area, 1, 2, 0)
	rng := rand.New(rand.NewSource(5))
	s := m.Init(rng)
	var quadrants [4]bool
	for i := 0; i < 20000; i++ {
		m.Step(&s, 0.3, rng)
		qi := 0
		if s.Pos.X >= 5 {
			qi |= 1
		}
		if s.Pos.Y >= 5 {
			qi |= 2
		}
		quadrants[qi] = true
	}
	for i, v := range quadrants {
		if !v {
			t.Errorf("quadrant %d never visited", i)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mean := range []float64{0.5, 3, 12, 80} {
		var sum, sumSq float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := float64(Poisson(rng, mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.1 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.15*mean+0.3 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -3) != 0 {
		t.Error("non-positive mean must yield 0")
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
