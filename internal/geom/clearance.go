package geom

import "math"

// Clearance primitives for safe-region maintenance (DESIGN.md §15): how
// far a covered rectangle may translate before it can escape a union of
// verified regions, and how much margin a contained rectangle has inside
// a single outer rectangle. Both are exact rectilinear computations that
// reduce to per-axis interval gaps.

// ClearanceRect returns the minimum distance from the rectangle w to the
// boundary of the union, and whether the union covers w. It is the
// rectangle analogue of Clearance: when ok, every translation of w by a
// vector shorter than the returned distance is still covered by the
// union (any escaping point would trace a path from a covered point of w
// into the complement in under the clearance). When the union does not
// cover w the distance is meaningless and ok is false.
func (u *RectUnion) ClearanceRect(w Rect) (float64, bool) {
	if !u.CoversRect(w) {
		return 0, false
	}
	return u.rowDist(w, true), true
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
