// Package geom provides the planar computational geometry that underpins
// sharing-based spatial query processing: points, axis-aligned rectangles,
// circles, segments, and exact operations on unions of axis-aligned
// rectangles through one cut kernel (Uncovered): a frame less the members,
// as disjoint pieces, which answers coverage, boundary clearance and
// circle-intersection areas.
//
// Verified regions in the paper are MBRs, so the merged verified region
// (MVR) is always a union of axis-aligned rectangles. That lets this
// package replace the general MapOverlay polygon machinery of de Berg et
// al. with exact rectilinear algorithms while producing the same
// quantities the NNV algorithm needs: whether the query point lies inside
// the MVR, the distance from the query point to the nearest boundary edge
// (Lemma 3.1), and the area of an unverified region (Lemma 3.2).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. Coordinates are in whatever linear
// unit the caller uses consistently (the simulator uses miles).
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle with Min.X <= Max.X and
// Min.Y <= Max.Y. The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	Min, Max Point
}

// NewRect builds a Rect from two opposite corners given in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{Min: Point{x1, y1}, Max: Point{x2, y2}}
}

// RectAround returns the square of half-side r centered at c; for r > 0 it
// is the MBR of the circle (c, r), the shape of a verified region built
// from an on-air kNN search range.
func RectAround(c Point, r float64) Rect {
	return Rect{Min: Point{c.X - r, c.Y - r}, Max: Point{c.X + r, c.Y + r}}
}

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Empty reports whether r has zero area.
func (r Rect) Empty() bool {
	return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y
}

// Valid reports whether Min <= Max on both axes.
func (r Rect) Valid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Finite reports whether no coordinate of r is NaN or infinite.
func (r Rect) Finite() bool {
	const m = math.MaxFloat64
	return math.Abs(r.Min.X) <= m && math.Abs(r.Min.Y) <= m && math.Abs(r.Max.X) <= m && math.Abs(r.Max.Y) <= m
}

// Contains reports whether p lies in the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsStrict reports whether p lies in the open interior of r.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.Min.X && p.X < r.Max.X && p.Y > r.Min.Y && p.Y < r.Max.Y
}

// ContainsRect reports whether s is entirely inside r (closed containment).
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the intersection of r and s and whether it is
// non-degenerate (positive area).
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}, false
	}
	return out, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand grows r by d on every side (shrinks for d < 0; the result may be
// invalid if shrunk past its center).
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Dist returns the minimum Euclidean distance from p to r; zero when p is
// inside r.
func (r Rect) Dist(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point of r
// (attained at the farthest corner).
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// BoundaryDist returns the minimum distance from p to the boundary of r.
// Unlike Dist it is positive for points strictly inside r.
func (r Rect) BoundaryDist(p Point) float64 {
	if !r.Contains(p) {
		return r.Dist(p)
	}
	return math.Min(
		math.Min(p.X-r.Min.X, r.Max.X-p.X),
		math.Min(p.Y-r.Min.Y, r.Max.Y-p.Y),
	)
}

// InnerGap returns the smallest margin between the boundary of the inner
// rectangle s and the boundary of r when r contains s, i.e. how far s
// may translate in any direction while staying inside r. Negative when s
// sticks out of r on some side.
func (r Rect) InnerGap(s Rect) float64 {
	return math.Min(
		math.Min(s.Min.X-r.Min.X, r.Max.X-s.Max.X),
		math.Min(s.Min.Y-r.Min.Y, r.Max.Y-s.Max.Y),
	)
}

// Clip returns p moved to the nearest point inside r.
func (r Rect) Clip(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Corners returns the four corners of r in counterclockwise order starting
// from Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s-%s]", r.Min, r.Max)
}

// Segment is a closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Dist returns the minimum distance from p to the segment.
func (s Segment) Dist(p Point) float64 {
	ab := s.B.Sub(s.A)
	ap := p.Sub(s.A)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(s.A)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := Point{s.A.X + t*ab.X, s.A.Y + t*ab.Y}
	return p.Dist(closest)
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }
