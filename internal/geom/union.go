package geom

import "math"

// RectUnion is a (possibly overlapping) collection of axis-aligned
// rectangles treated as their set union. It models the merged verified
// region (MVR) of the paper: the union of the verified-region MBRs
// returned by the peers of a querying mobile host.
//
// The zero value is the empty union. It is a member list and nothing
// more: every question about the union's geometry is asked of the cut
// kernel (Uncovered) framed where the question lies. Reset keeps the
// member storage, so a RectUnion reused via Reset reaches a
// zero-allocation steady state on the query hot path.
//
// Aliasing contract: the slice Rects returns points into the union's
// storage and is invalidated by the next Add or Reset. RectUnion is not
// safe for concurrent use.
type RectUnion struct {
	rects []Rect
}

// NewRectUnion builds a union from the given rectangles, dropping
// degenerate (zero-area) members.
func NewRectUnion(rects ...Rect) *RectUnion {
	u := &RectUnion{}
	for _, r := range rects {
		u.Add(r)
	}
	return u
}

// Reset empties the union for reuse, keeping the member storage.
func (u *RectUnion) Reset() { u.rects = u.rects[:0] }

// Add inserts another rectangle into the union.
func (u *RectUnion) Add(r Rect) {
	if r.Empty() || !r.Valid() {
		return
	}
	u.rects = append(u.rects, r)
}

// Rects returns the member rectangles as provided (possibly overlapping).
// The returned slice must not be modified and is invalidated by Add or
// Reset.
func (u *RectUnion) Rects() []Rect { return u.rects }

// Contains reports whether p lies in the closed union.
func (u *RectUnion) Contains(p Point) bool {
	for _, r := range u.rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Bounds returns the bounding box of rs, the zero Rect when rs is empty.
func Bounds(rs []Rect) Rect {
	if len(rs) == 0 {
		return Rect{}
	}
	b := rs[0]
	for _, r := range rs[1:] {
		b = b.Union(r)
	}
	return b
}

// BoundaryDist returns the minimum Euclidean distance from p to the
// boundary of the union: for p inside, its clearance — the kernel framed
// by the bounding box; for p outside, the distance to the nearest member.
// It returns +Inf for an empty union.
func (u *RectUnion) BoundaryDist(p Point) float64 {
	if !u.Contains(p) {
		d := math.Inf(1)
		for _, r := range u.rects {
			d = min(d, r.Dist(p))
		}
		return d
	}
	var k Uncovered
	k.Reset(Bounds(u.rects))
	k.CutAll(u.rects)
	return k.Dist(Rect{p, p})
}

// IntersectCircleArea returns the area of the intersection between the
// disk (c, radius) and the union: the disk less what the kernel framed by
// the disk's bounding square leaves uncovered.
func (u *RectUnion) IntersectCircleArea(c Point, radius float64) float64 {
	if radius <= 0 {
		return 0
	}
	var k Uncovered
	k.Reset(RectAround(c, radius))
	k.CutAll(u.rects)
	return max(0, math.Pi*radius*radius-k.UnverifiedArea(c, radius))
}
