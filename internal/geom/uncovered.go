package geom

import "math"

// Uncovered is a frame rectangle less the members cut out of it, kept as
// disjoint pieces: the one cut kernel every question about a union of
// rectangles goes through (DESIGN.md §9.2). NNV frames the square just
// wider than its reach around q, SBWQ the query window (the pieces are
// Algorithm 3's reduced windows), the trust screen a tainted claim's
// region, and the safe exits the point or window grown by a cap. The zero
// value is ready for Reset; the two piece buffers are swapped and reused,
// so a warm Uncovered allocates nothing.
type Uncovered struct {
	frame         Rect
	pieces, spare []Rect
}

// Reset starts over from the frame alone.
func (u *Uncovered) Reset(frame Rect) {
	u.frame = frame
	u.pieces = append(u.pieces[:0], frame)
}

// GrowPast returns r grown on every side by max(d·(1+1e-9), 1e-130). An
// edge that rounding left no farther than d from r's (d within ulps of
// r's coordinates, or a margin that rounds onto r) moves out one ulp. So
// the result has positive extent and every edge is farther than d from
// r: a frame in which every distance up to d is measured exactly.
func (r Rect) GrowPast(d float64) Rect {
	h, inf := max(d*(1+1e-9), 1e-130), math.Inf(1)
	return Rect{
		Min: Point{outward(r.Min.X, r.Min.X-h, d, -inf), outward(r.Min.Y, r.Min.Y-h, d, -inf)},
		Max: Point{outward(r.Max.X, r.Max.X+h, d, inf), outward(r.Max.Y, r.Max.Y+h, d, inf)},
	}
}

// outward returns the edge e beside c, moved one ulp toward dir when it
// lies no farther than d from c.
func outward(c, e, d, dir float64) float64 {
	if math.Abs(e-c) > d {
		return e
	}
	return math.Nextafter(e, dir)
}

// Cut takes the member m out of every piece it meets and reports whether
// nothing is left. A member of zero area covers nothing, as RectUnion.Add
// drops it; a piece m only touches stays whole.
func (u *Uncovered) Cut(m Rect) bool {
	if m.Empty() || !meets(m, u.frame) {
		return len(u.pieces) == 0
	}
	// Most members that meet the frame meet none of what is left of it, or
	// one piece: copy nothing until a piece is actually hit.
	k := 0
	for k < len(u.pieces) && !meets(m, u.pieces[k]) {
		k++
	}
	if k == len(u.pieces) {
		return k == 0
	}
	out := append(u.spare[:0], u.pieces[:k]...)
	for _, p := range u.pieces[k:] {
		if meets(m, p) {
			out = appendCut(out, p, m)
		} else {
			out = append(out, p)
		}
	}
	u.pieces, u.spare = out, u.pieces
	return len(out) == 0
}

// CutAll cuts each of ms in turn, stopping once nothing is left, and
// reports whether nothing is.
func (u *Uncovered) CutAll(ms []Rect) bool {
	for _, m := range ms {
		if u.Cut(m) {
			return true
		}
	}
	return len(u.pieces) == 0
}

// meets reports whether m and the piece p overlap on each axis: strictly
// where p has extent, closed where it has none. So a zero-width or point
// frame is cut by the members it lies in, edges included.
func meets(m, p Rect) bool {
	return meetsOn(m.Min.X, m.Max.X, p.Min.X, p.Max.X) && meetsOn(m.Min.Y, m.Max.Y, p.Min.Y, p.Max.Y)
}

func meetsOn(m0, m1, p0, p1 float64) bool {
	return m0 < p1 && p0 < m1 || p0 == p1 && m0 <= p0 && p0 <= m1
}

// appendCut appends the parts of w outside hole, which meets it: the
// bottom band, the middle-left and middle-right parts and the top band,
// by edge comparisons alone, so no coordinate is rounded (and on a tie,
// signed zeros included, w keeps its own).
func appendCut(dst []Rect, w, hole Rect) []Rect {
	lo, hi := w.Min.Y, w.Max.Y
	if hole.Min.Y > lo {
		lo = hole.Min.Y
	}
	if hole.Max.Y < hi {
		hi = hole.Max.Y
	}
	if w.Min.Y < lo {
		dst = append(dst, Rect{w.Min, Point{w.Max.X, lo}})
	}
	if w.Min.X < hole.Min.X {
		dst = append(dst, Rect{Point{w.Min.X, lo}, Point{hole.Min.X, hi}})
	}
	if hole.Max.X < w.Max.X {
		dst = append(dst, Rect{Point{hole.Max.X, lo}, Point{w.Max.X, hi}})
	}
	if hi < w.Max.Y {
		dst = append(dst, Rect{Point{w.Min.X, hi}, w.Max})
	}
	return dst
}

// Pieces returns what is left of the frame. The slice aliases the
// kernel's storage and is invalidated by the next Reset or Cut.
func (u *Uncovered) Pieces() []Rect { return u.pieces }

// Dist returns the least distance from w, which lies in the frame, to a
// piece or a frame edge: per-axis gaps to member and frame coordinates,
// combined by one Hypot. Zero when a piece meets w, as one does whenever
// the cut members leave part of w (or q, when w is the point q) uncovered.
// Otherwise it is w's clearance in the union of the members (Lemma 3.1's
// ‖q, e_s‖ for a point), bit for bit when that is at most the frame's
// margin around w, and a bound between the margin and the clearance when
// it is larger.
func (u *Uncovered) Dist(w Rect) float64 {
	d := u.frame.InnerGap(w)
	for _, p := range u.pieces {
		dx := max(0, p.Min.X-w.Max.X, w.Min.X-p.Max.X)
		dy := max(0, p.Min.Y-w.Max.Y, w.Min.Y-p.Max.Y)
		d = min(d, math.Hypot(dx, dy))
	}
	return d
}

// UnverifiedArea returns the area of the disk (c, radius) in the pieces,
// never negative: for a frame holding the disk, the part of it the cut
// members leave uncovered (Lemma 3.2).
func (u *Uncovered) UnverifiedArea(c Point, radius float64) float64 {
	total, mbr := 0.0, RectAround(c, radius)
	for _, p := range u.pieces {
		if p.Intersects(mbr) {
			total += CircleRectArea(c, radius, p)
		}
	}
	return total
}
