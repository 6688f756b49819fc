package core

import (
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// SBWQConfig tunes the sharing-based window query.
type SBWQConfig struct {
	// MaxKnownArea caps the area of the verified region a broadcast
	// retrieval is turned into (the "collective MBR" of the received
	// packets the paper's cache policy stores). Zero selects 64× the
	// window area.
	MaxKnownArea float64
}

// SBWQResult is the outcome of Algorithm 3.
type SBWQResult struct {
	// POIs are the objects inside the query window known at return:
	// exact for OutcomeVerified and OutcomeBroadcast.
	POIs []broadcast.POI
	// MVR is the merged verified region.
	MVR *geom.RectUnion
	// Outcome is OutcomeVerified when the window was entirely covered by
	// the MVR, otherwise OutcomeBroadcast.
	Outcome Outcome
	// ReducedWindows are the disjoint pieces of the window the MVR leaves
	// uncovered — the w′ rectangles resolved over the channel. Empty for
	// fully covered windows.
	ReducedWindows []geom.Rect
	// CoveredFraction is the fraction of the window's area covered by
	// the MVR: 1 for a covered window, and for a window of zero area 1
	// when it is covered and 0 otherwise.
	CoveredFraction float64
	// Access is the broadcast channel cost; zero-valued when the window
	// was fully covered.
	Access broadcast.Access
	// KnownRegion is a rectangle the client now has complete knowledge
	// of: the window itself, or — after a plain broadcast retrieval —
	// the collective cell-aligned MBR of the received packets.
	KnownRegion geom.Rect
	// Known holds every database POI inside KnownRegion.
	Known []broadcast.POI
	// Merged / Examined are the deterministic work units of the
	// mvr_merge and nnv_verify phase spans: peer regions merged into the
	// MVR and distinct in-window candidates collected from peer caches
	// (internal/metrics).
	Merged   int
	Examined int
}

// SBWQ is Algorithm 3: merge the peers' verified regions and collect
// their cached POIs overlapping the window w. If w lies entirely inside
// the MVR the query is fulfilled locally. Otherwise the window is reduced
// by subtracting the MVR, the on-air window query runs over the reduced
// windows only, and the channel data is merged with the peer knowledge.
//
// sched may be nil when no broadcast channel is available; the peer-side
// partial answer is then returned with OutcomeBroadcast.
func SBWQ(q geom.Point, w geom.Rect, peers []PeerData, sched *broadcast.Schedule, now int64) SBWQResult {
	return SBWQWithConfig(q, w, peers, SBWQConfig{}, sched, now)
}

// SBWQWithConfig is SBWQ with explicit tuning. It runs on pooled
// scratch and copies the aliasing MVR and reduced windows out before
// returning (POIs/Known are fresh already), so the result is
// caller-owned while the cold path stays near the warm path's
// allocation profile.
func SBWQWithConfig(q geom.Point, w geom.Rect, peers []PeerData, cfg SBWQConfig, sched *broadcast.Schedule, now int64) SBWQResult {
	s := getScratch()
	res := SBWQScratch(s, q, w, peers, cfg, sched, now)
	res.MVR = cloneMVR(res.MVR)
	res.ReducedWindows = slices.Clone(res.ReducedWindows)
	putScratch(s)
	return res
}

// SBWQScratch is SBWQ running on caller-owned scratch — the
// zero-intermediate-allocation hot-path variant. Candidate collection,
// the MVR, and deduplication reuse the scratch; the per-query ID map of
// the original is replaced by the sort-based dedup (duplicates of one POI
// ID share the database position, so they are adjacent after the
// distance sort). Results are bit-identical to SBWQWithConfig.
//
// Unlike SBNNScratch, the returned POIs/Known slices are freshly
// allocated: window-query answers double as the cached verified region,
// so they must survive the next query.
func SBWQScratch(s *Scratch, q geom.Point, w geom.Rect, peers []PeerData, cfg SBWQConfig, sched *broadcast.Schedule, now int64) SBWQResult {
	mvr, unc := &s.mvr, &s.uncovered
	mvr.Reset()
	unc.Reset(w)
	local := s.candidates[:0]
	mergedVRs := 0
	for _, p := range peers {
		if p.Tainted {
			// Untrusted contributions add nothing to a window query:
			// every SBWQ answer path is exact (verified coverage or
			// channel retrieval), and neither an unaudited VR nor its
			// POIs may enter an exact answer. The uncovered window parts
			// are resolved over the channel instead — the demotion from
			// "verified by a stranger's claim" to "re-downloaded".
			continue
		}
		mvr.Add(p.VR)
		unc.Cut(p.VR)
		mergedVRs++
		for _, poi := range p.POIs {
			if w.Contains(poi.Pos) {
				local = append(local, poi)
			}
		}
	}
	sortCandidates(s, local, q)
	local = dedupSortedCandidates(local)
	s.candidates = local
	res := SBWQResult{MVR: mvr, Merged: mergedVRs, Examined: len(local)}

	// What the MVR leaves of w is Algorithm 3's reduced windows: w is
	// covered when nothing is left.
	pieces := unc.Pieces()
	switch {
	case len(pieces) == 0:
		res.CoveredFraction = 1
	case w.Area() > 0:
		left := 0.0
		for _, p := range pieces {
			left += p.Area()
		}
		res.CoveredFraction = 1 - left/w.Area()
	}

	// freshCopy hands result POIs to the caller without aliasing scratch
	// (the caller inserts them into its cache).
	freshCopy := func(pois []broadcast.POI) []broadcast.POI {
		if len(pois) == 0 {
			return nil
		}
		out := make([]broadcast.POI, len(pois))
		copy(out, pois)
		return out
	}

	if len(pieces) == 0 {
		res.Outcome = OutcomeVerified
		out := freshCopy(local)
		res.POIs = out
		res.KnownRegion = w
		res.Known = out
		return res
	}

	res.Outcome = OutcomeBroadcast
	res.ReducedWindows = pieces
	if sched == nil {
		res.POIs = freshCopy(local)
		return res
	}
	onAir, raw, retrieved, acc := sched.WindowReducedDetailed(&s.onAir, res.ReducedWindows, now)
	res.Access = acc
	merged := append(local, onAir...)
	sortCandidates(s, merged, q)
	merged = dedupSortedCandidates(merged)
	s.candidates = merged
	merged = freshCopy(merged)
	res.POIs = merged

	// The exact window contents are always new verified knowledge; when
	// the retrieval alone made the client a complete authority on the
	// window's cells, grow the region to the collective MBR of the
	// received packets (the paper's broadcast-retrieval cache policy).
	maxArea := cfg.MaxKnownArea
	if maxArea <= 0 {
		maxArea = 64 * w.Area()
	}
	res.KnownRegion = sched.GrowCompleteRect(&s.onAir, w, retrieved, maxArea)
	if res.KnownRegion == w {
		res.Known = merged
	} else {
		// Inside the grown region every POI comes from a retrieved
		// packet, so the raw downloads are the complete inventory — and
		// hold no POI twice: a cell is in one packet and a retrieval
		// lists a packet once.
		res.Known = poisInside(raw, res.KnownRegion)
	}
	return res
}
