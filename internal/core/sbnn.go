package core

import (
	"math"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Outcome classifies how a sharing-based query was resolved — the
// categories the paper's experiments report.
type Outcome int

const (
	// OutcomeVerified: the query was fully answered from peer caches with
	// guaranteed-correct results (SBNN with k verified NNs, or SBWQ with
	// the window covered by the MVR).
	OutcomeVerified Outcome = iota
	// OutcomeApproximate: the client accepted a full heap containing
	// unverified entries whose correctness probabilities passed the
	// acceptance threshold (approximate SBNN).
	OutcomeApproximate
	// OutcomeBroadcast: the broadcast channel had to be used (possibly
	// with reduced search bounds derived from partial peer results).
	OutcomeBroadcast
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeVerified:
		return "verified"
	case OutcomeApproximate:
		return "approximate"
	case OutcomeBroadcast:
		return "broadcast"
	default:
		return "unknown"
	}
}

// SBNNConfig parameterizes a sharing-based nearest-neighbor query.
type SBNNConfig struct {
	// K is the number of nearest neighbors requested.
	K int
	// Lambda is the POI density (POIs per square unit) used by the
	// Lemma 3.2 correctness model.
	Lambda float64
	// AcceptApproximate allows the client to accept a full heap with
	// unverified entries instead of falling back to the channel (the
	// `accept` flag of Algorithm 2).
	AcceptApproximate bool
	// MinCorrectness is the acceptance threshold on each unverified
	// entry's correctness probability; the paper's experiments use 0.5.
	MinCorrectness float64
}

// SBNNResult is the outcome of Algorithm 2.
type SBNNResult struct {
	// POIs are the k best answers known at return, ascending by distance.
	// For OutcomeVerified and OutcomeBroadcast they are exact; for
	// OutcomeApproximate the unverified tail is probabilistic.
	POIs []broadcast.POI
	// Heap is the NNV result heap (Table 2).
	Heap *Heap
	// MVR is the merged verified region.
	MVR *geom.RectUnion
	// Outcome classifies the resolution.
	Outcome Outcome
	// Bounds are the on-air search bounds derived from the heap state
	// (zero when the channel was not used).
	Bounds broadcast.Bounds
	// Access is the broadcast channel cost; zero-valued for peer-resolved
	// queries.
	Access broadcast.Access
	// KnownRegion is a rectangle the client now has complete knowledge
	// of, and Known are exactly the database POIs inside it — the sound
	// verified region the client may cache and later share with peers.
	// Empty when the query produced no certain regional knowledge.
	KnownRegion geom.Rect
	// Known holds every POI inside KnownRegion.
	Known []broadcast.POI
	// Merged / Examined are the deterministic work units of the
	// mvr_merge and nnv_verify phase spans: peer regions merged into the
	// MVR and candidates pushed through verification (internal/metrics).
	Merged   int
	Examined int
}

// verifiedSquare returns the largest axis-aligned square centered at q
// whose closed extent provably contains only POIs at distance < radius
// (the square inscribed in the open disk), shrunk one ulp to exclude
// distance ties at the radius itself.
func verifiedSquare(q geom.Point, radius float64) geom.Rect {
	if radius <= 0 {
		return geom.Rect{}
	}
	half := math.Nextafter(radius, 0) / math.Sqrt2
	return geom.RectAround(q, half)
}

// SBNNScratch is Algorithm 2: run NNV over the peers' cached results; if
// k verified NNs were obtained — or the client accepts an approximate full
// heap — answer immediately with zero channel access. Otherwise derive
// search bounds from the heap state (Section 3.3.3), run the on-air kNN
// query with packet filtering, and merge the channel data with the peer
// knowledge.
//
// sched may be nil when no broadcast channel is available; the best
// peer-side answer is then returned with OutcomeBroadcast and no POIs
// beyond the heap contents.
//
// The returned Heap, MVR, POIs and Known alias the scratch and are valid
// only until the next call with the same Scratch; a warm Scratch answers
// without allocating. A caller that caches Known hands it to
// Cache.Insert, which keeps a copy.
func SBNNScratch(s *Scratch, q geom.Point, peers []PeerData, cfg SBNNConfig, sched *broadcast.Schedule, now int64) SBNNResult {
	nnv := NNVScratch(s, q, peers, cfg.K, cfg.Lambda)
	res := SBNNResult{Heap: nnv.Heap, MVR: nnv.MVR, Merged: nnv.Merged, Examined: nnv.Examined}

	// Whatever the outcome, everything within the last verified distance
	// is complete knowledge the client may cache.
	fillVerifiedKnowledge := func() {
		dv, ok := nnv.Heap.LastVerifiedDist()
		if !ok {
			return
		}
		res.KnownRegion = verifiedSquare(q, dv)
		known := s.known[:0]
		for _, e := range nnv.Heap.Entries() {
			if e.Verified && res.KnownRegion.Contains(e.POI.Pos) {
				known = append(known, e.POI)
			}
		}
		s.known = known
		res.Known = orNil(known)
	}

	// heapPOIs materializes the heap answer into the reused result buffer.
	heapPOIs := func() []broadcast.POI {
		s.poiBuf = nnv.Heap.AppendPOIs(s.poiBuf[:0])
		return s.poiBuf
	}

	if nnv.Heap.VerifiedCount() >= cfg.K && cfg.K > 0 {
		res.Outcome = OutcomeVerified
		res.POIs = heapPOIs()
		fillVerifiedKnowledge()
		return res
	}
	if cfg.AcceptApproximate && nnv.Heap.Full() &&
		nnv.Heap.MinUnverifiedCorrectness() >= cfg.MinCorrectness {
		res.Outcome = OutcomeApproximate
		res.POIs = heapPOIs()
		fillVerifiedKnowledge()
		return res
	}

	// Fall back to the broadcast channel with the heap-state bounds.
	// (SearchBounds suppresses the upper bound whenever a tainted entry
	// is present — an untrusted candidate must never truncate the on-air
	// search.)
	res.Outcome = OutcomeBroadcast
	res.Bounds = nnv.Heap.SearchBounds()
	if sched == nil {
		// No channel to re-verify against: return only the trusted heap
		// contents (identical to the full heap on the seed path).
		s.poiBuf = nnv.Heap.AppendTrustedPOIs(s.poiBuf[:0])
		res.POIs = s.poiBuf
		fillVerifiedKnowledge()
		return res
	}
	onAir, radius, acc := sched.KNN(&s.onAir, q, cfg.K, now, res.Bounds)
	res.Access = acc

	// Merge: the heap's trusted POIs (peer knowledge, covering any
	// packets the lower bound skipped — the lower bound derives from
	// verified entries, which are never tainted) plus the channel data.
	// Tainted entries are excluded: the merged set is an exact answer,
	// and a fabricated POI must not be able to enter it. The download
	// covers the search square, so it is the authority on every ID it
	// holds: a heap row with such an ID is dropped, stale or not. The
	// merged list is read in the candidate order — (distance², ID),
	// adjacent copies of one ID dropped — but never sorted whole: the
	// answer is its first k, selected as NNV selects its pools.
	merged := append(s.poiBuf[:0], onAir...)
	merged = dropSent(nnv.Heap.AppendTrustedPOIs(merged), len(onAir))
	s.poiBuf = merged
	pool := [1]PeerData{{POIs: merged}}
	s.candidates = selectNearest(s, s.candidates, q, pool[:], nil, cfg.K)
	res.POIs = s.candidates[:min(cfg.K, len(s.candidates))]

	// The retrieval covered every packet intersecting the search square,
	// and the heap covers the skipped packets, so within the square the
	// merged set is complete — that square is new verified knowledge.
	res.KnownRegion = geom.RectAround(q, radius)
	res.Known = knownInside(s, merged, q, res.KnownRegion)
	return res
}

// dropSent removes, in place, every row of merged[sent:] whose ID the
// download merged[:sent] holds, and returns what is left. The download
// holds no ID twice (TestRetrievalHoldsNoPOITwice), so afterwards only
// heap rows can share an ID.
func dropSent(merged []broadcast.POI, sent int) []broadcast.POI {
	out := merged[:sent]
	for _, p := range merged[sent:] {
		if !holdsID(merged[:sent], p.ID) {
			out = append(out, p)
		}
	}
	return out
}

// holdsID reports whether pois holds a POI with the given ID.
func holdsID(pois []broadcast.POI, id int64) bool {
	for i := range pois {
		if pois[i].ID == id {
			return true
		}
	}
	return false
}

// knownInside returns the members of merged inside r in the candidate
// order, adjacent copies of one ID dropped, in s.known; nil when there are
// none. Callers cache it and share it, so only those members are sorted.
func knownInside(s *Scratch, merged []broadcast.POI, q geom.Point, r geom.Rect) []broadcast.POI {
	out := appendInside(s.known[:0], merged, r)
	sortCandidates(s, out, q)
	s.known = out
	return orNil(dedupSortedCandidates(out))
}

// appendInside appends the members of pois inside r to dst.
func appendInside(dst, pois []broadcast.POI, r geom.Rect) []broadcast.POI {
	for _, p := range pois {
		if r.Contains(p.Pos) {
			dst = append(dst, p)
		}
	}
	return dst
}

// orNil returns pois, nil when empty, as a fresh scratch would.
func orNil(pois []broadcast.POI) []broadcast.POI {
	if len(pois) == 0 {
		return nil
	}
	return pois
}
