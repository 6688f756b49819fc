package core

import (
	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// PeerData is one verified region received from a peer: the MBR the peer
// guarantees complete knowledge of, and every cached POI inside it. A
// peer with several cached regions contributes one PeerData per region.
//
// Ownership: the POIs slice is borrowed from the caller (in the simulator
// it aliases live cache storage). The core algorithms never mutate it and
// never retain it — every candidate is copied into algorithm-owned
// buffers before the call returns — so callers may reuse or mutate the
// peer slices freely between queries. TestCoreDoesNotRetainPeerSlices
// pins this contract.
type PeerData struct {
	VR   geom.Rect
	POIs []broadcast.POI
	// Tainted marks a contribution from an untrusted peer (internal/trust
	// demoted it: the peer is unvouched, conflicted, or paroled). A
	// tainted VR is excluded from the merged verified region — Lemma 3.1
	// must not rest on an unaudited claim — and its POIs enter
	// verification as permanently-unverified candidates on the Lemma 3.2
	// probabilistic path. Callers supplying tainted peers must keep the
	// tainted and untainted POI ID sets disjoint (trust.Screen's
	// cross-pool dedup enforces this); core's candidate dedup is
	// per-pool. The zero value (untainted) reproduces seed behavior
	// exactly.
	Tainted bool
}

// Scratch holds the reusable per-client buffers of the query hot path:
// the merged verified region, the result heap, and the candidate/result
// slices. A Scratch reaches a zero-allocation steady state after a few
// queries (buffers grow to the working-set high-water mark and are then
// reused).
//
// Results returned by the *Scratch functions alias the scratch: Heap,
// MVR, and POIs are valid only until the next call with the same Scratch.
// Known/KnownRegion are always freshly allocated — callers cache them.
// A Scratch must not be shared between goroutines.
type Scratch struct {
	mvr        geom.RectUnion
	heap       Heap
	candidates []broadcast.POI
	tainted    []broadcast.POI
	poiBuf     []broadcast.POI
	sortKeys   []uint64 // sortCandidates: packed (distance², index) keys
}

// NNVResult bundles the outputs of the nearest-neighbor verification
// method.
type NNVResult struct {
	// Heap holds up to k candidates in ascending distance order with
	// their verification status, correctness probabilities, and
	// surpassing ratios.
	Heap *Heap
	// MVR is the merged verified region of all peers.
	MVR *geom.RectUnion
	// EdgeDist is ‖q, e_s‖ — the distance from q to the nearest boundary
	// edge of the MVR; zero when q lies outside the MVR (no verification
	// possible).
	EdgeDist float64
	// InsideMVR reports whether q lies inside the MVR (the precondition
	// of Lemma 3.1).
	InsideMVR bool
	// Candidates is the number of distinct POIs received from peers.
	Candidates int
	// Merged is the number of peer verified regions merged into the MVR
	// and Examined the number of candidates pushed through Lemma 3.1/3.2
	// verification — the deterministic work units of the mvr_merge and
	// nnv_verify phase spans (internal/metrics). Tainted regions are not
	// merged, so Merged counts only untainted peers.
	Merged   int
	Examined int
	// TaintedCandidates is the number of distinct candidates contributed
	// by tainted peers (zero on the seed path).
	TaintedCandidates int
}

// NNV is Algorithm 1: merge the peers' verified regions, sort their
// cached POIs by distance to q, and verify each candidate o against
// Lemma 3.1 (o is a guaranteed nearest neighbor when ‖q,o‖ ≤ ‖q,e_s‖ and
// q lies inside the MVR). Unverified candidates are annotated with the
// Lemma 3.2 correctness probability computed from the exact area of their
// unverified region, using lambda as the POI density.
//
// NNV runs on pooled scratch and copies the aliasing parts (Heap, MVR)
// out before returning, so the result is caller-owned while the cold
// path stays near the warm path's allocation profile.
func NNV(q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	s := GetScratch()
	res := NNVScratch(s, q, peers, k, lambda)
	res.Heap = cloneHeap(res.Heap)
	res.MVR = cloneMVR(res.MVR)
	PutScratch(s)
	return res
}

// NNVScratch is NNV running on caller-owned scratch: the zero-allocation
// hot-path variant used by the simulator's per-world query loop. The
// returned Heap and MVR alias the scratch (see Scratch).
//
// Output is bit-identical to NNV: candidate deduplication is sort-based
// (gather every peer POI, sort by (distance², ID), drop adjacent
// duplicates), which yields exactly the distinct candidate set in exactly
// the order the per-query map used to produce — duplicates of one POI ID
// carry the same database position, hence the same distance, and are
// therefore adjacent after the sort.
func NNVScratch(s *Scratch, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	return NNVScratchMVR(s, &s.mvr, false, q, peers, k, lambda)
}

// NNVScratchMVR is NNVScratch with the merged verified region held in a
// caller-supplied RectUnion instead of the Scratch. With prebuilt=false
// it resets mvr and merges the untainted peer regions into it exactly as
// NNVScratch does. With prebuilt=true it assumes mvr already holds the
// untainted VR multiset of peers (the tick engine's memoized,
// incrementally maintained MVR) and skips the rebuild; every derived
// query on the union is a pure function of that multiset, so the result
// is bit-identical either way. The returned MVR aliases mvr.
func NNVScratchMVR(s *Scratch, mvr *geom.RectUnion, prebuilt bool, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	if !prebuilt {
		mvr.Reset()
	}
	cands := s.candidates[:0]
	taints := s.tainted[:0]
	merged := 0
	for _, p := range peers {
		if p.Tainted {
			// Untrusted: the VR must not strengthen Lemma 3.1, but the
			// POIs may still compete as probabilistic candidates.
			taints = append(taints, p.POIs...)
			continue
		}
		if !prebuilt {
			mvr.Add(p.VR)
		}
		merged++
		cands = append(cands, p.POIs...)
	}
	sortCandidates(s, cands, q)
	cands = dedupSortedCandidates(cands)
	s.candidates = cands
	sortCandidates(s, taints, q)
	taints = dedupSortedCandidates(taints)
	s.tainted = taints

	s.heap.Reset(k)
	res := NNVResult{
		Heap:              &s.heap,
		MVR:               mvr,
		Candidates:        len(cands) + len(taints),
		Merged:            merged,
		TaintedCandidates: len(taints),
	}
	if d, ok := mvr.Clearance(q); ok {
		res.EdgeDist = d
		res.InsideMVR = true
	}

	// Merge-walk the two sorted pools in global (distance², ID) order.
	// With no tainted peers this reduces exactly to a walk of cands —
	// the seed loop, bit for bit.
	lastVerified := 0.0
	hasVerified := false
	i, j := 0, 0
	for (i < len(cands) || j < len(taints)) && !res.Heap.Full() {
		pickTainted := i >= len(cands) ||
			(j < len(taints) && candBefore(taints[j], cands[i], q))
		var poi broadcast.POI
		if pickTainted {
			poi = taints[j]
			j++
		} else {
			poi = cands[i]
			i++
		}
		res.Examined++
		d := poi.Pos.Dist(q)
		e := Entry{POI: poi, Dist: d, Tainted: pickTainted}
		if !pickTainted && res.InsideMVR && d <= res.EdgeDist {
			e.Verified = true
			e.Correctness = 1
			lastVerified = d
			hasVerified = true
		} else {
			// Unverified (or tainted — untrusted candidates can never be
			// verified regardless of geometry): the candidate's
			// unverified region is the part of its distance disk not
			// covered by the (trusted) MVR.
			u := mvr.UnverifiedArea(q, d)
			e.Correctness = CorrectnessProbability(lambda, u)
			if hasVerified && lastVerified > 0 {
				e.Surpassing = d / lastVerified
			}
		}
		res.Heap.add(e)
	}
	return res
}

// candBefore reports whether a precedes b in the candidate order
// (ascending distance² to q, POI ID as the deterministic tiebreak) —
// the same total order sortCandidates establishes within each pool.
func candBefore(a, b broadcast.POI, q geom.Point) bool {
	da, db := a.Pos.DistSq(q), b.Pos.DistSq(q)
	if da != db {
		return da < db
	}
	return a.ID < b.ID
}

// dedupSortedCandidates removes adjacent duplicate POI IDs in place and
// returns the deduplicated prefix. Input must be sorted by
// sortCandidates, which makes equal IDs adjacent (same POI ⇒ same
// position ⇒ same distance).
func dedupSortedCandidates(pois []broadcast.POI) []broadcast.POI {
	if len(pois) < 2 {
		return pois
	}
	out := pois[:1]
	for _, p := range pois[1:] {
		if p.ID != out[len(out)-1].ID {
			out = append(out, p)
		}
	}
	return out
}
