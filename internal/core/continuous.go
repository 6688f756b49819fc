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
//   - a region of complete knowledge around the query (the MVR clearance
//     disk for peer-verified answers, the retrieval square for
//     channel-resolved ones) — any database POI not among the known
//     candidates lies outside it;
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
// included — they are skipped by ID); clearance is the radius of the
// complete-knowledge disk around q, so every unknown POI is at distance
// >= clearance.
//
// Moving the query by delta inflates each answer distance by at most
// delta and deflates each non-answer distance by at most delta, so the
// k-set survives while 2*delta < minOther - dK: the nearest non-answer
// POI (known candidate or unknown at >= clearance) cannot undercut the
// farthest answer member. The order WITHIN the set may still permute;
// callers re-sort the stored answer by distance on every maintenance
// tick.
func SafeExitKNN(q geom.Point, answer, candidates []broadcast.POI, clearance float64) float64 {
	if len(answer) == 0 || clearance <= 0 {
		return 0
	}
	dK := 0.0
	for _, p := range answer {
		if d := p.Pos.Dist(q); d > dK {
			dK = d
		}
	}
	minOther := clearance
	for _, c := range candidates {
		if inAnswer(answer, c.ID) {
			continue
		}
		if d := c.Pos.Dist(q); d < minOther {
			minOther = d
		}
	}
	r := (minOther - dK) / 2
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// SafeExitWindow returns how far a window that translates rigidly with
// its host may move before its exact answer could change. candidates are
// every known database POI, inside the window or out; coverClearance
// bounds how far the window may translate while staying inside the
// complete-knowledge region (RectUnion.ClearanceRect for peer-verified
// answers, Rect.InnerGap of the retrieval square for channel-resolved
// ones).
//
// While the translation stays under coverClearance every database POI
// near the window is a known candidate, and while it stays under each
// candidate's distance to the window boundary no candidate crosses the
// boundary — the answer ID-set is unchanged.
func SafeExitWindow(w geom.Rect, candidates []broadcast.POI, coverClearance float64) float64 {
	r := coverClearance
	for _, c := range candidates {
		if d := w.BoundaryDist(c.Pos); d < r {
			r = d
		}
	}
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
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
