package core

import (
	"math"

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
	// Bounded promises that every POI lies in VR (closed), so none lies
	// nearer q than VR does: the scans for candidates pass over the row
	// once VR lies farther from q than every candidate they keep
	// (DESIGN.md §9.3, "Bounded rows"). The zero value promises nothing,
	// and every POI is read, as a claim that may lie needs.
	Bounded bool
}

// Scratch holds the reusable per-client buffers of the query hot path:
// the merged verified region, the uncovered pieces of NNV's reach square
// or of SBWQ's window, the result heap, and the candidate/result slices.
// A Scratch reaches a zero-allocation steady state after a few queries
// (buffers grow to the working-set high-water mark and are then reused).
//
// Every query algorithm runs on a caller's Scratch; there is no
// scratch-less entry point. Results alias the scratch: Heap, MVR,
// ReducedWindows, POIs and Known are valid only until the next call with
// the same Scratch, so a caller that keeps a result past that runs each
// query on a fresh Scratch (lbsq.Client does) or copies what it keeps. A
// cache keeps Known by Cache.Insert, which copies it (DESIGN.md §9.1
// rule 3). A Scratch must not be shared between goroutines.
type Scratch struct {
	mvr        geom.RectUnion
	uncovered  geom.Uncovered // NNV's reach square or SBWQ's window less the untainted regions
	heap       Heap
	nearest    []nearCand // selectNearest's buffer
	candidates []broadcast.POI
	tainted    []broadcast.POI
	taintMask  []bool // NNV: which peers are tainted, selectNearest's use
	poiBuf     []broadcast.POI
	known      []broadcast.POI // SBNN's and a grown SBWQ region's Known
	sortKeys   []uint64        // sortCandidates: packed (distance², index) keys
	onAir      broadcast.Scratch
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
	// EdgeDist is a lower bound on ‖q, e_s‖ — the distance from q to the
	// nearest boundary edge of the MVR — that is exact whenever it does
	// not exceed the distance of the farthest heap entry, and exceeds that
	// distance otherwise (NNV measures it in the square just wider than
	// that, DESIGN.md §9.3; MVR.BoundaryDist(q) is the true value). Zero
	// when q lies outside the MVR (no verification possible).
	EdgeDist float64
	// InsideMVR reports whether q lies inside the MVR (the precondition
	// of Lemma 3.1).
	InsideMVR bool
	// Merged is the number of peer verified regions merged into the MVR
	// and Examined the number of candidates pushed through Lemma 3.1/3.2
	// verification — the deterministic work units of the mvr_merge and
	// nnv_verify phase spans (internal/metrics). Tainted regions are not
	// merged, so Merged counts only untainted peers.
	Merged   int
	Examined int
}

// NNVScratch is Algorithm 1: merge the peers' verified regions, take
// their cached POIs in order of distance to q, and verify each candidate o
// against Lemma 3.1 (o is a guaranteed nearest neighbor when
// ‖q,o‖ ≤ ‖q,e_s‖ and q lies inside the MVR). Unverified candidates are
// annotated with the Lemma 3.2 correctness probability computed from the
// exact area of their unverified region, using lambda as the POI density.
// It runs on caller-owned scratch: the returned Heap and MVR alias it (see
// Scratch).
//
// The work is bounded by what the k heap rows need (DESIGN.md §9.3), not
// by what the peers sent. The rows are the head of the candidate order —
// every peer POI sorted by (distance², ID), adjacent copies of one ID
// dropped — so each pool, trusted and tainted, is scanned in place for
// its first k distinct candidates and never sorted whole; and every
// question the rows ask of the MVR lies within reach, the distance of the
// farthest row, so it is asked of the uncovered pieces of the square just
// wider than reach (geom.Uncovered). The full MVR still receives every
// untainted region.
func NNVScratch(s *Scratch, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	mvr := &s.mvr
	mvr.Reset()
	s.heap.Reset(k)
	res := NNVResult{Heap: &s.heap, MVR: mvr}
	mask := s.taintMask[:0]
	for i := range peers {
		// An untrusted VR must not strengthen Lemma 3.1, but its POIs may
		// still compete as probabilistic candidates: the tainted pool.
		p := &peers[i]
		if !p.Tainted {
			mvr.Add(p.VR)
			res.Merged++
		}
		mask = append(mask, p.Tainted)
	}
	s.taintMask = mask
	cands := selectNearest(s, s.candidates, q, peers, nil, k)
	taints := selectNearest(s, s.tainted, q, peers, mask, k)
	s.candidates, s.tainted = cands, taints

	// Merge-walk the two sorted pools in global (distance², ID) order
	// until the heap is full. With no tainted peers this reduces exactly
	// to a walk of cands.
	reach := 0.0
	for i, j := 0, 0; (i < len(cands) || j < len(taints)) && res.Heap.Len() < k; {
		e := Entry{Tainted: i >= len(cands) ||
			(j < len(taints) && candBefore(taints[j], cands[i], q))}
		if e.Tainted {
			e.POI = taints[j]
			j++
		} else {
			e.POI = cands[i]
			i++
		}
		e.Dist = e.POI.Pos.Dist(q)
		reach = max(reach, e.Dist)
		res.Heap.add(e)
	}
	res.Examined = res.Heap.Len()

	// Every distance the rows are compared with or priced at is ≤ reach.
	unc := &s.uncovered
	unc.Reset(geom.Rect{Min: q, Max: q}.GrowPast(reach))
	for i := range peers {
		if p := &peers[i]; !p.Tainted && unc.Cut(p.VR) {
			break // the square is covered: q is inside, every row verified
		}
	}
	// A positive distance leaves q in no piece, so inside a member; at
	// zero q is outside or on the boundary, and only a member can tell.
	res.EdgeDist = unc.Dist(geom.Rect{Min: q, Max: q})
	res.InsideMVR = res.EdgeDist > 0 || mvr.Contains(q)

	lastVerified := 0.0
	for i := range s.heap.entries {
		e := &s.heap.entries[i]
		if !e.Tainted && res.InsideMVR && e.Dist <= res.EdgeDist {
			e.Verified = true
			e.Correctness = 1
			lastVerified = e.Dist
			continue
		}
		// Unverified (or tainted — untrusted candidates can never be
		// verified regardless of geometry): the candidate's unverified
		// region is the part of its distance disk not covered by the
		// (trusted) MVR.
		e.Correctness = CorrectnessProbability(lambda, unc.UnverifiedArea(q, e.Dist))
		if lastVerified > 0 {
			e.Surpassing = e.Dist / lastVerified
		}
	}
	return res
}

// nearCand is one row of the trusted pool's selection buffer: a candidate
// and its squared distance to q.
type nearCand struct {
	d2  float64
	poi broadcast.POI
}

// after reports whether c follows the key (d2, id) in the candidate order.
func (c *nearCand) after(d2 float64, id int64) bool {
	return d2 < c.d2 || (d2 == c.d2 && id < c.poi.ID)
}

// selectNearest returns the head of a pool's candidate order — what
// sorting the pool with sortCandidates and dropping adjacent copies with
// dedupSortedCandidates would put first — long enough to hold k
// candidates, or all of them when there are fewer, appended to dst[:0].
// The pool is the POIs of the untainted peers or, with a non-nil use, of
// the peers use marks, one flag per peer, taint ignored; a plain list is
// one untainted peer. It scans the peers' slices in place, keeping the
// limit nearest distinct (distance², ID) keys seen so far in sorted order:
// almost every POI is dismissed by one comparison with the farthest key
// kept, and a copy of a kept candidate by a short search; a Bounded peer
// whose region lies farther than that key is passed over unread, since
// each of its POIs would be dismissed. Of equal keys the first scanned
// stays, as under the stable sort. Dropping adjacent copies of an ID can
// shorten the kept keys below k (one ID reported at two positions with
// nothing between them); the scan then repeats with the limit doubled.
func selectNearest(s *Scratch, dst []broadcast.POI, q geom.Point, peers []PeerData, use []bool, k int) []broadcast.POI {
	if k <= 0 {
		return dst[:0]
	}
	for limit := k; ; limit *= 2 {
		sel := s.nearest[:0]
		for i := range peers {
			pd := &peers[i]
			if use == nil && pd.Tainted || use != nil && !use[i] {
				continue
			}
			if pd.Bounded && len(sel) == limit && pd.VR.DistSq(q) > sel[limit-1].d2 {
				continue // every POI would be dismissed below
			}
			for _, p := range pd.POIs {
				d2 := p.Pos.DistSq(q)
				n := len(sel)
				if n >= limit && !sel[n-1].after(d2, p.ID) {
					continue
				}
				at := n
				for at > 0 && sel[at-1].after(d2, p.ID) {
					at--
				}
				if at > 0 && sel[at-1].d2 == d2 && sel[at-1].poi.ID == p.ID {
					continue
				}
				if n < limit {
					sel = append(sel, nearCand{})
				}
				copy(sel[at+1:], sel[at:])
				sel[at] = nearCand{d2, p}
			}
		}
		s.nearest = sel
		out := dst[:0]
		for i := range sel {
			out = append(out, sel[i].poi)
		}
		out = dedupSortedCandidates(out)
		if len(out) >= k || len(sel) < limit {
			return out
		}
		dst = out
	}
}

// Reach returns the squared distance from q of the k-th candidate NNV
// ranks from peers — the last of selectNearest's k — and false when the
// untainted peers hold fewer than k distinct candidates. Every heap row NNV
// builds from peers lies no farther (DESIGN.md §9.3, "The reach cut").
// A non-nil use, one flag per peer, picks the peers whose POIs count
// instead, taint ignored, so a caller selects rows without copying them.
func Reach(s *Scratch, q geom.Point, peers []PeerData, use []bool, k int) (float64, bool) {
	if k <= 0 {
		return 0, true
	}
	cands := selectNearest(s, s.candidates, q, peers, use, k)
	s.candidates = cands
	if len(cands) < k {
		return 0, false
	}
	return cands[k-1].Pos.DistSq(q), true
}

// ReachCut marks, in keep (reused), the peers NNV reads when its k-th
// candidate lies at squared distance d2 from q (Reach): a peer whose region
// meets the square around q of half-side r, or that lists a POI no farther
// than d2 wherever its region lies (a lie, or a POI on the region's edge).
// NNV over the marked peers alone builds the same rows with the same
// verdicts and probabilities as over all of them: every row lies no
// farther than d2, and NNV's square is no wider than r but for an ulp
// (DESIGN.md §9.3). r is √d2 widened by 1e-9 relative, far above the few
// ulps by which Dist and DistSq round apart, and at least 1e-130, above
// every distance whose square rounds by more (near underflow); an
// infinite or NaN d2 marks every peer.
func ReachCut(keep []bool, q geom.Point, peers []PeerData, d2 float64) []bool {
	keep = keep[:0]
	all := !(d2 < math.Inf(1))
	sq := geom.RectAround(q, max(math.Sqrt(d2)*(1+1e-9), 1e-130))
	for i := range peers {
		keep = append(keep, all || peers[i].VR.Intersects(sq) || peers[i].Lists(q, d2))
	}
	return keep
}

// Lists reports whether p lists a POI within squared distance d2 of q.
func (p *PeerData) Lists(q geom.Point, d2 float64) bool {
	if p.Bounded && p.VR.DistSq(q) > d2 {
		return false
	}
	for i := range p.POIs {
		if p.POIs[i].Pos.DistSq(q) <= d2 {
			return true
		}
	}
	return false
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
