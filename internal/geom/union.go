package geom

import (
	"cmp"
	"math"
	"slices"
)

// RectUnion is a (possibly overlapping) collection of axis-aligned
// rectangles treated as their set union. It models the merged verified
// region (MVR) of the paper: the union of the verified-region MBRs
// returned by the peers of a querying mobile host.
//
// The zero value is the empty union. The one derived structure is the
// row-strip decomposition (Disjoint): the maximal covered x-runs of every
// compressed y-row, a pure function of the member multiset. Areas,
// boundary distances and clearances are all answered from it. It is
// computed lazily and cached; Add and Reset invalidate it but keep the
// allocated capacity, so a RectUnion reused via Reset reaches a
// zero-allocation steady state on the query hot path.
//
// Aliasing contract: slices returned by Rects and Disjoint point into the
// union's internal storage and are invalidated by the next Add or Reset.
// Callers that need the data across mutations must copy. RectUnion is not
// safe for concurrent use.
type RectUnion struct {
	rects []Rect

	// Row strips in row-major order (valid when haveDisjoint is set; the
	// backing array is reused across Reset cycles).
	disjoint     []Rect
	haveDisjoint bool

	// Row directory over the strips (valid when haveRows is set), what the
	// boundary searches walk.
	rowDir   []rowSpan
	haveRows bool

	// Reusable scratch: coordinate lists (Disjoint, CoversRect) and the
	// sweep's member indices.
	xs, ys []float64
	idx    []int32
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

// Reset empties the union for reuse, keeping every internal allocation
// (member storage, cache arrays, scratch). This is the
// hot-path entry point: a per-client RectUnion is Reset once per query
// instead of reallocated.
func (u *RectUnion) Reset() {
	u.rects = u.rects[:0]
	u.invalidate()
}

func (u *RectUnion) invalidate() {
	u.haveDisjoint = false
	u.haveRows = false
}

// Add inserts another rectangle into the union.
func (u *RectUnion) Add(r Rect) {
	if r.Empty() || !r.Valid() {
		return
	}
	u.rects = append(u.rects, r)
	u.invalidate()
}

// CopyFrom replaces u's members with a copy of src's, reusing u's
// storage. Derived caches are invalidated (they rebuild lazily); src is
// untouched.
func (u *RectUnion) CopyFrom(src *RectUnion) {
	u.rects = append(u.rects[:0], src.rects...)
	u.invalidate()
}

// Rects returns the member rectangles as provided (possibly overlapping).
// The returned slice must not be modified and is invalidated by Add or
// Reset.
func (u *RectUnion) Rects() []Rect { return u.rects }

// Len returns the number of member rectangles.
func (u *RectUnion) Len() int { return len(u.rects) }

// Contains reports whether p lies in the closed union.
func (u *RectUnion) Contains(p Point) bool {
	for _, r := range u.rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Area returns the exact area of the union.
func (u *RectUnion) Area() float64 {
	total := 0.0
	for _, r := range u.Disjoint() {
		total += r.Area()
	}
	return total
}

// Disjoint returns a decomposition of the union into pairwise disjoint
// rectangles (they may share edges but not interior points): for every
// row of the y-grid induced by the member coordinates, the maximal
// covered x-runs, in row-major order. A y-sweep keeps the members alive
// in the current row ordered by Min.X and merges them in one pass, so the
// cost is O(n log n + rows·active) — no cell grid is materialised. The
// result is a pure function of the member multiset. The returned slice is
// invalidated by Add or Reset.
func (u *RectUnion) Disjoint() []Rect {
	if len(u.rects) == 0 {
		return nil
	}
	if u.haveDisjoint {
		return u.disjoint
	}
	// Scratch is sized up front: a union that grows pays one allocation
	// per buffer, not a doubling ladder.
	rects, n := u.rects, len(u.rects)
	ys, idx := slices.Grow(u.ys[:0], 2*n), slices.Grow(u.idx[:0], 2*n)
	for i, r := range rects {
		ys = append(ys, r.Min.Y, r.Max.Y)
		idx = append(idx, int32(i))
	}
	ys = dedupSorted(ys)
	order, act := idx[:n:n], idx[n:n] // members by Min.Y; those alive in the row, by Min.X
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(rects[a].Min.Y, rects[b].Min.Y) })
	u.ys, u.idx = ys, idx

	out, next := slices.Grow(u.disjoint[:0], len(ys)), 0
	for j := 0; j+1 < len(ys); j++ {
		y0, y1 := ys[j], ys[j+1]
		for ; next < len(order) && rects[order[next]].Min.Y <= y0; next++ {
			id := order[next]
			i := len(act)
			act = append(act, id)
			for ; i > 0 && rects[act[i-1]].Min.X > rects[id].Min.X; i-- {
				act[i] = act[i-1]
			}
			act[i] = id
		}
		// One pass drops the members that ended below this row and merges
		// the rest, already in Min.X order, into maximal runs.
		live, open := act[:0], false
		var lo, hi float64
		for _, id := range act {
			r := &rects[id]
			if r.Max.Y <= y0 {
				continue
			}
			live = append(live, id)
			switch {
			case !open:
				lo, hi, open = r.Min.X, r.Max.X, true
			case r.Min.X > hi:
				out = append(out, Rect{Point{lo, y0}, Point{hi, y1}})
				lo, hi = r.Min.X, r.Max.X
			case r.Max.X > hi:
				hi = r.Max.X
			}
		}
		act = live
		if open {
			out = append(out, Rect{Point{lo, y0}, Point{hi, y1}})
		}
	}
	u.disjoint = out
	u.haveDisjoint = true
	return out
}

// rowSpan is one entry of the row directory: a maximal stack of rows with
// identical covered x-runs. It starts at y, ends where the next entry
// starts, and its runs are the strips disjoint[lo:hi] of its first row.
type rowSpan struct {
	y      float64
	lo, hi int32
}

// rows builds the row directory over the strips. Uncovered bands between
// rows and the two half-planes outside the bounding box are spans without
// runs and a terminal entry at +Inf closes the last one, so a search never
// leaves the directory.
func (u *RectUnion) rows() {
	dis := u.Disjoint()
	if u.haveRows {
		return
	}
	n := int32(len(dis))
	rows := append(u.rowDir[:0], rowSpan{y: math.Inf(-1)})
	top := math.Inf(-1) // upper edge of the last covered span
	for i, j := int32(0), int32(0); i < n; i = j {
		for j = i + 1; j < n && dis[j].Min.Y == dis[i].Min.Y; j++ {
		}
		if last := rows[len(rows)-1]; dis[i].Min.Y == top && sameRuns(dis[last.lo:last.hi], dis[i:j]) {
			top = dis[i].Max.Y
			continue
		}
		if i > 0 && dis[i].Min.Y > top {
			rows = append(rows, rowSpan{top, i, i}) // uncovered band
		}
		rows = append(rows, rowSpan{dis[i].Min.Y, i, j})
		top = dis[i].Max.Y
	}
	if n > 0 {
		rows = append(rows, rowSpan{top, n, n})
	}
	u.rowDir = append(rows, rowSpan{math.Inf(1), n, n})
	u.haveRows = true
}

// sameRuns reports whether two rows cover the same x-runs.
func sameRuns(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Min.X != b[i].Min.X || a[i].Max.X != b[i].Max.X {
			return false
		}
	}
	return true
}

// rowDist is the one search behind every boundary query: the minimum
// distance from the rectangle w (a point when Min == Max) to the covered
// runs of the row strips (gaps=false), or to the closure of the union's
// complement — the x-gaps between the runs of each row (gaps=true). Spans
// are visited outward from w and a direction stops as soon as its
// y-distance alone reaches the best distance found, so a probe touches a
// handful of spans. Distances are per-axis differences of member
// coordinates combined by one Hypot; nothing here depends on what is
// cached or on how the strips were reached.
func (u *RectUnion) rowDist(w Rect, gaps bool) float64 {
	u.rows()
	rows := u.rowDir
	lo, hi := 0, len(rows)-1 // span holding w's lower edge: last k with rows[k].y <= w.Min.Y
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); rows[m].y <= w.Min.Y {
			lo = m
		} else {
			hi = m
		}
	}
	best := math.Inf(1)
	for k := lo; k < len(rows)-1; k++ {
		dy := max(0, rows[k].y-w.Max.Y)
		if dy >= best {
			break
		}
		best = u.spanBest(rows[k], w, gaps, dy, best)
	}
	for k := lo - 1; k >= 0; k-- {
		dy := w.Min.Y - rows[k+1].y
		if dy >= best {
			break
		}
		best = u.spanBest(rows[k], w, gaps, dy, best)
	}
	return best
}

// spanBest folds one span, at y-distance dy from w, into the running
// minimum.
func (u *RectUnion) spanBest(sp rowSpan, w Rect, gaps bool, dy, best float64) float64 {
	dx := math.Inf(1)
	if gaps {
		// The only run that can keep w's x-extent off every gap is the
		// first one ending right of it; the gaps beside it are the nearest.
		dx = 0
		for _, s := range u.disjoint[sp.lo:sp.hi] {
			if s.Max.X > w.Max.X {
				if s.Min.X < w.Min.X {
					dx = min(w.Min.X-s.Min.X, s.Max.X-w.Max.X)
				}
				break
			}
		}
	} else {
		for _, s := range u.disjoint[sp.lo:sp.hi] {
			dx = min(dx, max(0, s.Min.X-w.Max.X, w.Min.X-s.Max.X))
		}
	}
	if dx >= best {
		return best
	}
	return min(best, math.Hypot(dx, dy))
}

// BoundaryDist returns the minimum Euclidean distance from p to the
// boundary of the union. For p inside the union this is the clearance
// radius (‖q, e_s‖ in the NNV algorithm); for p outside it is the distance
// to the union. It returns +Inf for an empty union.
func (u *RectUnion) BoundaryDist(p Point) float64 {
	if d := u.rowDist(Rect{p, p}, true); d > 0 {
		return d
	}
	return u.rowDist(Rect{p, p}, false)
}

// Clearance returns the distance from p to the union boundary when p lies
// inside the union, and ok=false (with zero distance) otherwise. This is
// exactly the quantity Lemma 3.1 verifies candidates against: any POI
// closer to p than its clearance is a guaranteed true nearest neighbor.
func (u *RectUnion) Clearance(p Point) (float64, bool) {
	if d := u.rowDist(Rect{p, p}, true); d > 0 {
		return d, true
	}
	// p touches the complement: on the boundary if it also touches a run,
	// outside otherwise.
	return 0, u.rowDist(Rect{p, p}, false) == 0
}

// CoversRect reports whether rectangle w is entirely inside the union —
// the SBWQ full-coverage test (query window answered locally). It walks
// the compressed grid induced by the member coordinates inside w and
// returns false at the first uncovered cell, allocating nothing in the
// steady state (the grid scratch is reused). An axis on which w has no
// extent is one cell [v, v], so a segment is walked along its length.
func (u *RectUnion) CoversRect(w Rect) bool {
	xs, ys := u.xs[:0], u.ys[:0]
	xs = append(xs, w.Min.X, w.Max.X)
	ys = append(ys, w.Min.Y, w.Max.Y)
	for _, r := range u.rects {
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
	if len(xs) == 1 {
		xs = append(xs, xs[0])
	}
	if len(ys) == 1 {
		ys = append(ys, ys[0])
	}
	u.xs, u.ys = xs, ys
	for j := 0; j+1 < len(ys); j++ {
		ymid := (ys[j] + ys[j+1]) / 2
		for i := 0; i+1 < len(xs); i++ {
			xmid := (xs[i] + xs[i+1]) / 2
			if !u.Contains(Point{xmid, ymid}) {
				return false
			}
		}
	}
	return true
}

// IntersectRectArea returns the exact area of w ∩ union.
func (u *RectUnion) IntersectRectArea(w Rect) float64 {
	total := 0.0
	for _, d := range u.Disjoint() {
		if clipped, ok := d.Intersect(w); ok {
			total += clipped.Area()
		}
	}
	return total
}

// IntersectCircleArea returns the exact area of the intersection between
// the disk (c, radius) and the union: the sum over the row strips that
// meet the disk's bounding square.
func (u *RectUnion) IntersectCircleArea(c Point, radius float64) float64 {
	if radius <= 0 {
		return 0
	}
	total := 0.0
	mbr := RectAround(c, radius)
	for _, d := range u.Disjoint() {
		if d.Intersects(mbr) {
			total += CircleRectArea(c, radius, d)
		}
	}
	return total
}

// SubtractRect returns the parts of w not covered by the union of covers,
// as a set of disjoint rectangles. This implements the query-window
// reduction of SBWQ: the returned rectangles are the reduced windows w′
// that still require on-air resolution.
func SubtractRect(w Rect, covers []Rect) []Rect { return AppendSubtractRect(nil, w, covers) }

// AppendSubtractRect appends SubtractRect(w, covers) to dst: the repair
// and reduction kernels cut into a reused buffer. The cut coordinates
// start on the stack and reach the heap only past 15 covers meeting w.
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

// AppendSubtractOne appends to dst the parts of w not covered by hole —
// exactly the rectangles SubtractRect(w, []Rect{hole}) returns, bit for
// bit and in its order (bottom band, middle-left, middle-right, top
// band) — without sorting or allocating beyond dst's growth. It is the
// trust screen's quarantine-subtraction primitive: one hole at a time,
// per piece, into a reused buffer. The coordinates must not be NaN.
//
// One hole cuts each axis of w into at most three intervals, and a grid
// cell is covered exactly when its x-interval and its y-interval both lie
// in the hole, so the general routine's per-cell midpoint probe factors
// into three probes per axis (the same midpoints, hence the same answers
// on slivers one ulp wide).
func AppendSubtractOne(dst []Rect, w, hole Rect) []Rect {
	if w.Empty() {
		return dst
	}
	if !hole.Intersects(w) {
		return append(dst, w)
	}
	var xs, ys [4]float64
	var xin, yin [3]bool
	nx := axisCuts(&xs, &xin, w.Min.X, w.Max.X, hole.Min.X, hole.Max.X)
	ny := axisCuts(&ys, &yin, w.Min.Y, w.Max.Y, hole.Min.Y, hole.Max.Y)
	for j := 0; j+1 < ny; j++ {
		start := -1
		for i := 0; i < nx; i++ {
			uncovered := i+1 < nx && !(xin[i] && yin[j])
			if uncovered && start < 0 {
				start = i
			}
			if !uncovered && start >= 0 {
				dst = append(dst, Rect{Min: Point{xs[start], ys[j]}, Max: Point{xs[i], ys[j+1]}})
				start = -1
			}
		}
	}
	return dst
}

// axisCuts writes to cuts the ascending, deduplicated coordinates that
// split [lo, hi] at the hole edges a and b lying strictly inside it, marks
// in in[i] whether the midpoint of interval i lies in the closed [a, b],
// and returns the number of coordinates.
func axisCuts(cuts *[4]float64, in *[3]bool, lo, hi, a, b float64) int {
	c0, c1 := a, b
	if c1 < c0 {
		c0, c1 = c1, c0
	}
	n := 1
	cuts[0] = lo
	if c0 > lo && c0 < hi {
		cuts[n] = c0
		n++
	}
	if c1 > lo && c1 < hi && c1 != c0 {
		cuts[n] = c1
		n++
	}
	cuts[n] = hi
	n++
	for i := 0; i+1 < n; i++ {
		mid := (cuts[i] + cuts[i+1]) / 2
		in[i] = mid >= a && mid <= b
	}
	return n
}

// dedupSorted sorts vs ascending and removes duplicates in place.
func dedupSorted(vs []float64) []float64 {
	slices.Sort(vs)
	return slices.Compact(vs)
}
