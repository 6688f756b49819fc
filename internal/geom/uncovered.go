package geom

import "math"

// Uncovered is the part of a square around a query point q that a set of
// rectangles leaves uncovered, as disjoint pieces: NNV's one structure for
// the two questions Algorithm 1 asks of the merged verified region within
// reach of its rows (DESIGN.md §9.3) — how far q is from the uncovered
// (Lemma 3.1) and how much of a disk around q is uncovered (Lemma 3.2).
// The zero value is ready for Reset; the two piece buffers are swapped and
// reused, so a warm Uncovered allocates nothing.
type Uncovered struct {
	q             Point
	sq            Rect
	pieces, spare []Rect
	inside        bool
}

// Reset starts over from the square around q of half-side
// max(reach·(1+1e-9), 1e-130), ReachCut's. A side that rounding left no
// farther than reach from q (reach within ulps of q's coordinates, or a
// square that rounds onto q) moves out one ulp, past q ± half. So the
// square has positive width and every edge is farther than reach from q.
func (u *Uncovered) Reset(q Point, reach float64) {
	h, inf := max(reach*(1+1e-9), 1e-130), math.Inf(1)
	u.sq = Rect{
		Min: Point{outward(q.X, q.X-h, reach, -inf), outward(q.Y, q.Y-h, reach, -inf)},
		Max: Point{outward(q.X, q.X+h, reach, inf), outward(q.Y, q.Y+h, reach, inf)},
	}
	u.q, u.inside = q, false
	u.pieces = append(u.pieces[:0], u.sq)
}

// outward returns the edge e of a square around c, moved one ulp toward
// dir when it lies no farther than reach from c.
func outward(c, e, reach, dir float64) float64 {
	if math.Abs(e-c) > reach {
		return e
	}
	return math.Nextafter(e, dir)
}

// Cut takes the member m out of every piece and reports whether nothing
// is left. A member of zero area covers nothing, as RectUnion.Add drops
// it; a piece m only touches stays whole. One that contains q overlaps
// the square, which holds q strictly inside.
func (u *Uncovered) Cut(m Rect) bool {
	if m.Empty() || !overlaps(m, u.sq) {
		return len(u.pieces) == 0
	}
	u.inside = u.inside || m.Contains(u.q)
	out := u.spare[:0]
	for _, p := range u.pieces {
		if overlaps(m, p) {
			out = appendCut(out, p, m)
		} else {
			out = append(out, p)
		}
	}
	u.pieces, u.spare = out, u.pieces
	return len(out) == 0
}

// overlaps reports whether a and b share interior points.
func overlaps(a, b Rect) bool {
	return a.Min.X < b.Max.X && b.Min.X < a.Max.X && a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y
}

// appendCut appends the parts of w outside hole, which overlaps it:
// AppendSubtractOne's pieces, by edge comparisons where it probes cell
// midpoints, which a cell one ulp wide (a square rounded onto q) rounds.
func appendCut(dst []Rect, w, hole Rect) []Rect {
	lo, hi := max(w.Min.Y, hole.Min.Y), min(w.Max.Y, hole.Max.Y)
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

// Clearance returns ‖q, e_s‖ (Lemma 3.1) as the least distance from q to
// a piece or a square edge, and whether a cut member contains q. A piece
// is nearest to q on member edges, so a union clearance at most reach is
// returned bit for bit (RectUnion.Clearance's arithmetic); a larger one
// as a bound in (reach, clearance]. Zero, false when q is outside.
func (u *Uncovered) Clearance() (float64, bool) {
	if len(u.pieces) > 0 && !u.inside {
		return 0, false
	}
	q, sq := u.q, u.sq
	d := min(q.X-sq.Min.X, sq.Max.X-q.X, q.Y-sq.Min.Y, sq.Max.Y-q.Y)
	for _, p := range u.pieces {
		d = min(d, p.Dist(q))
	}
	return d, true
}

// UnverifiedArea returns the uncovered area of the disk around q of the
// given radius, at most reach (Lemma 3.2): the sum of the disk's area in
// each piece, never negative.
func (u *Uncovered) UnverifiedArea(radius float64) float64 {
	total, mbr := 0.0, RectAround(u.q, radius)
	for _, p := range u.pieces {
		if p.Intersects(mbr) {
			total += CircleRectArea(u.q, radius, p)
		}
	}
	return total
}
