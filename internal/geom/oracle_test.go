package geom

import (
	"math"
	"slices"
	"sort"
)

// Brute-force references for the cut kernel (Uncovered), sharing no code
// with it, so the differential and fuzz tests compare against an
// independent construction: the union boundary as explicit edge pieces
// (every member edge minus what other members cover on its outward side,
// O(n²)), the strip decomposition read off the full difference grid of
// the compressed coordinates (the union's area), and coverage probed
// cell by cell.

type interval struct{ a, b float64 }

// outwardBelow/outwardAbove select which side of an edge is "outward" for
// coverage testing in edgePieces.
const (
	outwardBelow = iota // outward side has smaller coordinate (bottom/left edges)
	outwardAbove        // outward side has larger coordinate (top/right edges)
)

// bruteBoundary returns the boundary of the union as axis-parallel
// segments. A portion of a member rectangle's edge belongs to the union
// boundary exactly when no other member covers its outward side.
func bruteBoundary(u *RectUnion) []Segment {
	var out []Segment
	for i, r := range u.rects {
		out = edgePieces(out, u.rects, i, r.Min.Y, r.Min.X, r.Max.X, true, outwardBelow)
		out = edgePieces(out, u.rects, i, r.Max.Y, r.Min.X, r.Max.X, true, outwardAbove)
		out = edgePieces(out, u.rects, i, r.Min.X, r.Min.Y, r.Max.Y, false, outwardBelow)
		out = edgePieces(out, u.rects, i, r.Max.X, r.Min.Y, r.Max.Y, false, outwardAbove)
	}
	return out
}

// edgePieces appends the sub-segments of one rectangle edge that lie on
// the union boundary. The edge is at fixed coordinate `level` on the
// perpendicular axis and spans [lo, hi] on the parallel axis.
func edgePieces(out []Segment, rects []Rect, self int, level, lo, hi float64, horizontal bool, side int) []Segment {
	var cov []interval
	for j, s := range rects {
		if j == self {
			continue
		}
		perpMin, perpMax, parMin, parMax := s.Min.X, s.Max.X, s.Min.Y, s.Max.Y
		if horizontal {
			perpMin, perpMax, parMin, parMax = s.Min.Y, s.Max.Y, s.Min.X, s.Max.X
		}
		coversOutward := perpMax > level && perpMin <= level // points just above level are inside s
		if side == outwardBelow {
			coversOutward = perpMin < level && perpMax >= level
		}
		if a, b := math.Max(parMin, lo), math.Min(parMax, hi); coversOutward && a < b {
			cov = append(cov, interval{a, b})
		}
	}
	for _, piece := range subtractIntervals(interval{lo, hi}, cov) {
		if horizontal {
			out = append(out, Segment{Point{piece.a, level}, Point{piece.b, level}})
		} else {
			out = append(out, Segment{Point{level, piece.a}, Point{level, piece.b}})
		}
	}
	return out
}

// subtractIntervals returns the parts of base not covered by any interval
// in cov. The covering intervals are treated as closed; zero-length
// leftovers are dropped.
func subtractIntervals(base interval, cov []interval) []interval {
	sort.Slice(cov, func(i, j int) bool { return cov[i].a < cov[j].a })
	var out []interval
	cursor := base.a
	for _, c := range cov {
		if c.a > cursor {
			if end := math.Min(c.a, base.b); end > cursor {
				out = append(out, interval{cursor, end})
			}
		}
		cursor = math.Max(cursor, c.b)
	}
	if cursor < base.b {
		out = append(out, interval{cursor, base.b})
	}
	return out
}

// segmentRectDist returns the minimum Euclidean distance between the
// axis-parallel segment s and the closed rectangle r (zero when they
// intersect), by per-axis interval gaps — the arithmetic the kernel uses.
// For an axis-parallel segment the bounding box IS the segment, so the
// box-to-box gap distance is exact.
func segmentRectDist(s Segment, r Rect) float64 {
	sMinX, sMaxX := math.Min(s.A.X, s.B.X), math.Max(s.A.X, s.B.X)
	sMinY, sMaxY := math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
	dx := math.Max(0, math.Max(r.Min.X-sMaxX, sMinX-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-sMaxY, sMinY-r.Max.Y))
	return math.Hypot(dx, dy)
}

// bruteBoundaryDist scans every boundary piece (segs = bruteBoundary(u))
// with the kernel's per-axis arithmetic: the bit-exact reference for
// BoundaryDist (w = Rect{p, p}) and the kernel's Dist of a covered point
// or window. +Inf for an empty union.
func bruteBoundaryDist(segs []Segment, w Rect) float64 {
	best := math.Inf(1)
	for _, s := range segs {
		best = math.Min(best, segmentRectDist(s, w))
	}
	return best
}

// legacyBoundaryDist is the retired production route: projection onto
// each boundary segment (Segment.Dist). It agrees with the per-axis
// arithmetic to within an ulp or so, not bit for bit.
func legacyBoundaryDist(segs []Segment, p Point) float64 {
	best := math.Inf(1)
	for _, s := range segs {
		best = math.Min(best, s.Dist(p))
	}
	return best
}

// gridStrips decomposes the union into strips: every member marks its
// covered cell range on a per-row difference array over the compressed
// grid, and a per-row prefix sum merges covered cells into strips.
func gridStrips(rects []Rect) []Rect {
	var xs, ys []float64
	for _, r := range rects {
		xs = append(xs, r.Min.X, r.Max.X)
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	xs, ys = sortedUnique(xs), sortedUnique(ys)
	nx, ny := len(xs)-1, len(ys)-1
	if nx <= 0 || ny <= 0 {
		return nil
	}
	diff := make([]int32, ny*(nx+1))
	for _, r := range rects {
		x0, x1 := sort.SearchFloat64s(xs, r.Min.X), sort.SearchFloat64s(xs, r.Max.X)
		y0, y1 := sort.SearchFloat64s(ys, r.Min.Y), sort.SearchFloat64s(ys, r.Max.Y)
		for row := y0; row < y1; row++ {
			diff[row*(nx+1)+x0]++
			diff[row*(nx+1)+x1]--
		}
	}
	var out []Rect
	for j := 0; j < ny; j++ {
		depth, stripStart := int32(0), -1
		for i := 0; i <= nx; i++ {
			depth += diff[j*(nx+1)+i]
			covered := i < nx && depth > 0
			if covered && stripStart < 0 {
				stripStart = i
			}
			if !covered && stripStart >= 0 {
				out = append(out, Rect{Point{xs[stripStart], ys[j]}, Point{xs[i], ys[j+1]}})
				stripStart = -1
			}
		}
	}
	return out
}

// oracleArea is the area of the union of rects, summed over the grid
// builder's strips.
func oracleArea(rects []Rect) float64 {
	total := 0.0
	for _, s := range gridStrips(rects) {
		total += s.Area()
	}
	return total
}

// bruteCovers reports whether the closed union of the members of positive
// area covers the closed window w, probing one point per cell of the grid
// their edges cut w into: the cell's midpoint, or w's own coordinate on an
// axis where w has no extent.
func bruteCovers(w Rect, rects []Rect) bool {
	probes := func(lo, hi float64, edges func(Rect) [2]float64) []float64 {
		cuts := []float64{lo, hi}
		for _, r := range rects {
			for _, v := range edges(r) {
				if !r.Empty() && v > lo && v < hi {
					cuts = append(cuts, v)
				}
			}
		}
		cuts = sortedUnique(cuts)
		if len(cuts) == 1 {
			return cuts
		}
		mids := make([]float64, len(cuts)-1)
		for i := range mids {
			mids[i] = (cuts[i] + cuts[i+1]) / 2
		}
		return mids
	}
	xs := probes(w.Min.X, w.Max.X, func(r Rect) [2]float64 { return [2]float64{r.Min.X, r.Max.X} })
	ys := probes(w.Min.Y, w.Max.Y, func(r Rect) [2]float64 { return [2]float64{r.Min.Y, r.Max.Y} })
	for _, x := range xs {
		for _, y := range ys {
			if !NewRectUnion(rects...).Contains(Pt(x, y)) {
				return false
			}
		}
	}
	return true
}

// cutPieces returns a copy of what the members leave of the frame, cut in
// their order.
func cutPieces(frame Rect, rects []Rect) []Rect {
	var u Uncovered
	u.Reset(frame)
	u.CutAll(rects)
	return append([]Rect(nil), u.Pieces()...)
}

// sortedUnique sorts vs ascending and drops repeats, in place.
func sortedUnique(vs []float64) []float64 {
	slices.Sort(vs)
	return slices.Compact(vs)
}
