package geom

import (
	"math"
	"slices"
)

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

// AppendSubtractRect appends to dst the parts of w not covered by the
// union of covers, as disjoint rectangles: every row of the grid the
// cover edges cut w into, less its covered cells, as maximal strips. It
// is cache.ReconcileRegion's repair cut into a reused buffer. The cut
// coordinates start on the stack and reach the heap only past 15 covers
// meeting w.
func AppendSubtractRect(dst []Rect, w Rect, covers []Rect) []Rect {
	if w.Empty() {
		return dst
	}
	var xbuf, ybuf [32]float64
	xs := append(xbuf[:0], w.Min.X, w.Max.X)
	ys := append(ybuf[:0], w.Min.Y, w.Max.Y)
	for _, r := range covers {
		if !r.Intersects(w) {
			continue
		}
		if r.Min.X > w.Min.X && r.Min.X < w.Max.X {
			xs = append(xs, r.Min.X)
		}
		if r.Max.X > w.Min.X && r.Max.X < w.Max.X {
			xs = append(xs, r.Max.X)
		}
		if r.Min.Y > w.Min.Y && r.Min.Y < w.Max.Y {
			ys = append(ys, r.Min.Y)
		}
		if r.Max.Y > w.Min.Y && r.Max.Y < w.Max.Y {
			ys = append(ys, r.Max.Y)
		}
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)

	covered := func(p Point) bool {
		for _, r := range covers {
			if r.Contains(p) {
				return true
			}
		}
		return false
	}

	for j := 0; j+1 < len(ys); j++ {
		ymid := (ys[j] + ys[j+1]) / 2
		stripStart := -1
		for i := 0; i <= len(xs)-1; i++ {
			uncovered := false
			if i+1 < len(xs) {
				xmid := (xs[i] + xs[i+1]) / 2
				uncovered = !covered(Point{xmid, ymid})
			}
			if uncovered && stripStart < 0 {
				stripStart = i
			}
			if !uncovered && stripStart >= 0 {
				dst = append(dst, Rect{
					Min: Point{xs[stripStart], ys[j]},
					Max: Point{xs[i], ys[j+1]},
				})
				stripStart = -1
			}
		}
	}
	return dst
}

// dedupSorted sorts vs ascending and removes duplicates in place.
func dedupSorted(vs []float64) []float64 {
	slices.Sort(vs)
	return slices.Compact(vs)
}
