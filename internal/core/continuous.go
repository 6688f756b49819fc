package core

import (
	"math"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Safe-exit radii for continuous standing queries (DESIGN.md §15). Both
// functions bound how far the query may move from the position where its
// answer was last verified exact before the answer could flip, using
// only knowledge that was certain at verification time:
//
//   - a region of complete knowledge around the query (the MVR for
//     peer-verified answers, the retrieval square for channel-resolved
//     ones) — any database POI not among the known candidates lies
//     outside it;
//   - the known candidates themselves — the only POIs that can flip the
//     answer from inside the region.
//
// Distances to a fixed point are 1-Lipschitz in the query position, so
// the radii below keep every "is this POI in the answer" comparison on
// the same side it was on at verification. The radii are conservative:
// ties and empty margins yield zero, which just forces the subscription
// to re-verify on the next tick.

// SafeExitKNN returns how far the query point may move from q before the
// verified exact kNN answer could change as a SET. answer is the exact
// k-set at q; candidates are every known database POI (answer members
// included — they are skipped by ID); region is the complete-knowledge
// region as member rectangles (the MVR's for a peer-verified answer, the
// known region for a channel-resolved one), so every unknown POI is at
// least q's clearance in it away. The clearance is cut on s.
//
// Moving the query by delta inflates each answer distance by at most
// delta and deflates each non-answer distance by at most delta, so the
// k-set survives while 2*delta < minOther - dK: the nearest non-answer
// POI (known candidate or unknown beyond the clearance) cannot undercut
// the farthest answer member. The order WITHIN the set may still permute;
// callers re-sort the stored answer by distance on every maintenance
// tick.
func SafeExitKNN(s *Scratch, q geom.Point, answer, candidates []broadcast.POI, region []geom.Rect) float64 {
	if len(answer) == 0 {
		return 0
	}
	dK := 0.0
	for _, p := range answer {
		if d := p.Pos.Dist(q); d > dK {
			dK = d
		}
	}
	minOther := math.Inf(1)
	for _, c := range candidates {
		if inAnswer(answer, c.ID) {
			continue
		}
		if d := c.Pos.Dist(q); d < minOther {
			minOther = d
		}
	}
	room := clearance(&s.uncovered, geom.Rect{Min: q, Max: q}, region, minOther)
	if room <= 0 {
		return 0
	}
	r := (min(minOther, room) - dK) / 2
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// SafeExitWindow returns how far a window that translates rigidly with
// its host may move before its exact answer could change. candidates are
// every known database POI, inside the window or out; region is the
// complete-knowledge region as member rectangles (the MVR's for a
// peer-verified answer, the known region for a channel-resolved one),
// and the window's clearance in it is cut on s.
//
// While the translation stays under that clearance every database POI
// near the window is a known candidate, and while it stays under each
// candidate's distance to the window boundary no candidate crosses the
// boundary — the answer ID-set is unchanged.
func SafeExitWindow(s *Scratch, w geom.Rect, candidates []broadcast.POI, region []geom.Rect) float64 {
	r := math.Inf(1)
	for _, c := range candidates {
		if d := w.BoundaryDist(c.Pos); d < r {
			r = d
		}
	}
	r = min(r, clearance(&s.uncovered, w, region, r))
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// clearance returns how far w may translate while staying inside the
// union of region: zero when region leaves part of w uncovered, else the
// least distance from w to the uncovered pieces of w grown just past a
// cap (DESIGN.md §15.2). The cap is the lesser of limit — the bound the
// candidates already set — and w's margin in region's bounding box, which
// no clearance exceeds. So a clearance up to limit is exact, bit for bit,
// and a larger one is returned as a bound above limit, which the caller's
// minimum with limit discards.
func clearance(unc *geom.Uncovered, w geom.Rect, region []geom.Rect, limit float64) float64 {
	limit = min(limit, geom.Bounds(region).InnerGap(w))
	if !(limit > 0) {
		return 0
	}
	unc.Reset(w.GrowPast(limit))
	unc.CutAll(region)
	return unc.Dist(w)
}

// SortByDist orders pois ascending by (distance to q, ID) — the total
// order the query algorithms use — so a maintained kNN answer can be
// re-ranked cheaply after the host moves without re-running the query.
func SortByDist(pois []broadcast.POI, q geom.Point) {
	s := getScratch()
	sortCandidates(s, pois, q)
	putScratch(s)
}

// inAnswer reports whether id is one of the (at most k, so linear-scan
// cheap) answer members.
func inAnswer(answer []broadcast.POI, id int64) bool {
	for _, a := range answer {
		if a.ID == id {
			return true
		}
	}
	return false
}
