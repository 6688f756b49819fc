// Package mobility implements the random waypoint mobility model (Broch
// et al., MobiCom 1998) used by the paper's simulator, plus the Poisson
// arrival processes that drive query launching.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"lbsq/internal/geom"
)

// Waypoint is a random waypoint model: a host picks a uniform destination
// in the area and a uniform speed in [MinSpeed, MaxSpeed], travels in a
// straight line, pauses up to MaxPause, and repeats.
type Waypoint struct {
	Area     geom.Rect
	MinSpeed float64 // distance units per time unit, > 0
	MaxSpeed float64
	MaxPause float64 // time units
}

// NewWaypoint validates and returns a model.
func NewWaypoint(area geom.Rect, minSpeed, maxSpeed, maxPause float64) (*Waypoint, error) {
	if area.Empty() || !area.Finite() {
		return nil, fmt.Errorf("mobility: empty or non-finite area %v", area)
	}
	// Written so that NaN fails every comparison into an error.
	if !(minSpeed > 0 && maxSpeed >= minSpeed && maxSpeed <= math.MaxFloat64) {
		return nil, fmt.Errorf("mobility: bad speed range [%v, %v]", minSpeed, maxSpeed)
	}
	if !(maxPause >= 0 && maxPause <= math.MaxFloat64) {
		return nil, fmt.Errorf("mobility: pause %v must be non-negative and finite", maxPause)
	}
	return &Waypoint{Area: area, MinSpeed: minSpeed, MaxSpeed: maxSpeed, MaxPause: maxPause}, nil
}

// State is the per-host mobility state.
type State struct {
	Pos       geom.Point
	Dest      geom.Point
	Speed     float64
	PauseLeft float64
}

// Init places a host uniformly in the area with a fresh leg.
func (m *Waypoint) Init(rng *rand.Rand) State {
	s := State{Pos: m.randomPoint(rng)}
	m.newLeg(&s, rng)
	return s
}

func (m *Waypoint) randomPoint(rng *rand.Rand) geom.Point {
	return geom.Pt(
		m.Area.Min.X+rng.Float64()*m.Area.Width(),
		m.Area.Min.Y+rng.Float64()*m.Area.Height(),
	)
}

func (m *Waypoint) newLeg(s *State, rng *rand.Rand) {
	s.Dest = m.randomPoint(rng)
	s.Speed = m.MinSpeed + rng.Float64()*(m.MaxSpeed-m.MinSpeed)
	if m.MaxPause > 0 {
		s.PauseLeft = rng.Float64() * m.MaxPause
	}
}

// Step advances the host by dt time units, consuming pauses and turning at
// waypoints as needed.
func (m *Waypoint) Step(s *State, dt float64, rng *rand.Rand) {
	for dt > 0 {
		if s.PauseLeft > 0 {
			if s.PauseLeft >= dt {
				s.PauseLeft -= dt
				return
			}
			dt -= s.PauseLeft
			s.PauseLeft = 0
		}
		remaining := s.Pos.Dist(s.Dest)
		travel := s.Speed * dt
		if travel < remaining {
			dir := s.Dest.Sub(s.Pos).Scale(1 / remaining)
			s.Pos = s.Pos.Add(dir.Scale(travel))
			return
		}
		// Reached the waypoint: spend the matching time, then pick a new
		// leg (with a fresh pause).
		if s.Speed > 0 {
			dt -= remaining / s.Speed
		} else {
			dt = 0
		}
		s.Pos = s.Dest
		m.newLeg(s, rng)
	}
}

// Heading returns the unit direction of travel, or the zero vector while
// paused or at the destination.
func (s *State) Heading() geom.Point {
	if s.PauseLeft > 0 {
		return geom.Point{}
	}
	d := s.Dest.Sub(s.Pos)
	n := d.Norm()
	if n == 0 {
		return geom.Point{}
	}
	return d.Scale(1 / n)
}

// Poisson draws a Poisson-distributed count with the given mean using
// Knuth's method for small means and a normal approximation for large
// ones.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		v := rng.NormFloat64()*math.Sqrt(mean) + mean + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
