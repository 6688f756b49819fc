// Package core implements the paper's contribution: sharing-based
// processing of location-based spatial queries. It provides the
// nearest-neighbor verification method NNV (Algorithm 1) over the merged
// verified region of peer caches, the correctness-probability model for
// unverified candidates (Lemma 3.2) with surpassing ratios, the
// sharing-based nearest neighbor query SBNN (Algorithm 2) including the
// six-state search-bound derivation of Section 3.3.3, and the
// sharing-based window query SBWQ (Algorithm 3).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Entry is one row of the result heap H (Table 2 of the paper): a
// candidate POI, its distance to the query point, whether Lemma 3.1
// verified it, and — for unverified candidates — the probability that it
// truly holds its rank and its surpassing ratio relative to the last
// verified entry.
type Entry struct {
	POI      broadcast.POI
	Dist     float64
	Verified bool
	// Correctness is the probability the candidate is the true NN of its
	// rank (Lemma 3.2); it is 1 for verified entries.
	Correctness float64
	// Surpassing is ‖q,o_u‖ / ‖q,o_lv‖, the worst-case detour factor
	// relative to the last verified entry; zero when no entry is
	// verified.
	Surpassing float64
	// Tainted marks a candidate supplied by an untrusted peer (one the
	// trust layer has not vouched, or whose region conflicted). Tainted
	// entries are permanently demoted to the Lemma 3.2 probabilistic
	// path: they can never be Verified, never set the on-air upper
	// search bound, and never enter exact merged answers — a fabricated
	// POI must not be able to claim verification or truncate a search.
	Tainted bool
}

// Heap is the bounded result container H of the NNV method: at most k
// entries in ascending distance order, verified entries first (they are
// necessarily nearer than the verification threshold, unverified entries
// farther).
type Heap struct {
	k       int
	entries []Entry
}

// NewHeap returns an empty heap for a k-NN query.
func NewHeap(k int) *Heap {
	if k < 0 {
		k = 0
	}
	return &Heap{k: k}
}

// Reset re-initializes the heap for a new k-NN query, keeping the entry
// storage allocated for reuse (the scratch hot path).
func (h *Heap) Reset(k int) {
	if k < 0 {
		k = 0
	}
	h.k = k
	h.entries = h.entries[:0]
}

// K returns the requested result cardinality.
func (h *Heap) K() int { return h.k }

// Len returns the number of entries currently held.
func (h *Heap) Len() int { return len(h.entries) }

// Full reports whether the heap holds k entries.
func (h *Heap) Full() bool { return len(h.entries) >= h.k && h.k > 0 }

// Entries returns the entries in ascending distance order. The slice must
// not be modified.
func (h *Heap) Entries() []Entry { return h.entries }

// VerifiedCount returns how many entries are verified.
func (h *Heap) VerifiedCount() int {
	n := 0
	for _, e := range h.entries {
		if e.Verified {
			n++
		}
	}
	return n
}

// TaintedCount returns how many entries came from untrusted peers.
func (h *Heap) TaintedCount() int {
	n := 0
	for _, e := range h.entries {
		if e.Tainted {
			n++
		}
	}
	return n
}

// add appends an entry; NNV adds candidates in ascending distance order,
// so the slice stays sorted.
func (h *Heap) add(e Entry) {
	if len(h.entries) >= h.k {
		return
	}
	h.entries = append(h.entries, e)
}

// LastDist returns the distance of the farthest entry; ok is false for an
// empty heap. With a full heap it is the upper search bound of Section
// 3.3.3.
func (h *Heap) LastDist() (float64, bool) {
	if len(h.entries) == 0 {
		return 0, false
	}
	return h.entries[len(h.entries)-1].Dist, true
}

// LastVerifiedDist returns the distance d_v of the farthest verified
// entry; ok is false when nothing is verified. It is the lower search
// bound: every database POI within d_v of the query point is already in
// the heap.
func (h *Heap) LastVerifiedDist() (float64, bool) {
	for i := len(h.entries) - 1; i >= 0; i-- {
		if h.entries[i].Verified {
			return h.entries[i].Dist, true
		}
	}
	return 0, false
}

// State is the heap condition after NNV, as enumerated in Section 3.3.3.
type State int

const (
	// StateFullMixed — H full with verified and unverified entries
	// (state 1): both bounds available.
	StateFullMixed State = iota + 1
	// StateFullUnverified — H full with only unverified entries
	// (state 2): upper bound only.
	StateFullUnverified
	// StatePartialMixed — H not full, both kinds (state 3): lower bound
	// only.
	StatePartialMixed
	// StatePartialVerified — H not full, only verified entries
	// (state 4): lower bound only.
	StatePartialVerified
	// StatePartialUnverified — H not full, only unverified entries
	// (state 5): no bounds.
	StatePartialUnverified
	// StateEmpty — no entries (state 6): no bounds.
	StateEmpty
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateFullMixed:
		return "full-mixed"
	case StateFullUnverified:
		return "full-unverified"
	case StatePartialMixed:
		return "partial-mixed"
	case StatePartialVerified:
		return "partial-verified"
	case StatePartialUnverified:
		return "partial-unverified"
	case StateEmpty:
		return "empty"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// State classifies the heap into one of the six states.
func (h *Heap) State() State {
	v := h.VerifiedCount()
	u := len(h.entries) - v
	switch {
	case len(h.entries) == 0:
		return StateEmpty
	case h.Full() && v > 0 && u > 0:
		return StateFullMixed
	case h.Full() && v == 0:
		return StateFullUnverified
	case h.Full(): // full, all verified: the query is fulfilled — treat as
		// the mixed-full case for bound purposes (both bounds coincide).
		return StateFullMixed
	case v > 0 && u > 0:
		return StatePartialMixed
	case v > 0:
		return StatePartialVerified
	default:
		return StatePartialUnverified
	}
}

// SearchBounds derives the on-air packet filtering bounds of Section
// 3.3.3 from the heap state. A zero field means "no bound of that kind".
//
// Soundness under byzantine peers: a tainted entry's distance must never
// become the upper bound — if the POI is fabricated, only k-1 real
// candidates lie within that distance and skipping farther packets would
// lose the true k-th neighbor. Any tainted entry therefore suppresses
// the upper bound. The lower bound always comes from verified entries,
// which are never tainted, so it stays sound unchanged.
func (h *Heap) SearchBounds() broadcast.Bounds {
	var b broadcast.Bounds
	switch h.State() {
	case StateFullMixed:
		b.Upper, _ = h.LastDist()
		b.Lower, _ = h.LastVerifiedDist()
	case StateFullUnverified:
		b.Upper, _ = h.LastDist()
	case StatePartialMixed, StatePartialVerified:
		b.Lower, _ = h.LastVerifiedDist()
	}
	if b.Upper > 0 && h.TaintedCount() > 0 {
		b.Upper = 0
	}
	return b
}

// MinUnverifiedCorrectness returns the smallest correctness probability
// among unverified entries, or 1 when every entry is verified. It is the
// quantity the approximate-SBNN acceptance test thresholds (the paper's
// experiments accept results whose POI correctness probability exceeds
// 50%).
func (h *Heap) MinUnverifiedCorrectness() float64 {
	min := 1.0
	for _, e := range h.entries {
		if !e.Verified && e.Correctness < min {
			min = e.Correctness
		}
	}
	return min
}

// POIs returns the entry POIs in ascending distance order.
func (h *Heap) POIs() []broadcast.POI {
	out := make([]broadcast.POI, len(h.entries))
	for i, e := range h.entries {
		out[i] = e.POI
	}
	return out
}

// AppendPOIs appends the entry POIs in ascending distance order to dst
// and returns it — the zero-allocation variant of POIs for reused
// buffers.
func (h *Heap) AppendPOIs(dst []broadcast.POI) []broadcast.POI {
	for _, e := range h.entries {
		dst = append(dst, e.POI)
	}
	return dst
}

// AppendTrustedPOIs appends the POIs of untainted entries in ascending
// distance order to dst and returns it. Exact answer paths (the on-air
// merge, cached verified knowledge) must use this variant: a tainted POI
// may be fabricated and would silently poison an exact result set.
// Identical to AppendPOIs when no entry is tainted.
func (h *Heap) AppendTrustedPOIs(dst []broadcast.POI) []broadcast.POI {
	for _, e := range h.entries {
		if e.Tainted {
			continue
		}
		dst = append(dst, e.POI)
	}
	return dst
}

// sortCandidates orders candidate POIs by ascending distance² to q with
// the ID as the deterministic tiebreak; the order is total up to identical
// POIs. Each candidate's distance² is computed once and packed, with the
// candidate's index in its low bits, into one integer key (the bit pattern
// of a non-negative float orders like the float), so the bulk of the work
// is an allocation-free sort of plain integers rather than a comparator
// call per comparison. The sorted keys are then applied to pois as a
// permutation, in place. The index bits cost the key its lowest distance
// bits, so a final insertion pass under the exact (distance², ID) order
// settles the near-ties — nothing else moves.
func sortCandidates(s *Scratch, pois []broadcast.POI, q geom.Point) {
	keys := slices.Grow(s.sortKeys[:0], len(pois))
	shift := bits.Len(uint(len(pois)))
	for i, p := range pois {
		keys = append(keys, math.Float64bits(p.Pos.DistSq(q))>>shift<<shift|uint64(i))
	}
	s.sortKeys = keys
	slices.Sort(keys)
	for i := range keys {
		// Rotate the cycle through slot i: every slot takes the candidate
		// its key names and is marked settled by naming itself.
		first := pois[i]
		for k := i; ; {
			src := int(keys[k] & (1<<shift - 1))
			keys[k] = uint64(k)
			if src == i {
				pois[k] = first
				break
			}
			pois[k], k = pois[src], src
		}
	}
	for i := 1; i < len(pois); i++ {
		for j := i; j > 0 && candBefore(pois[j], pois[j-1], q); j-- {
			pois[j], pois[j-1] = pois[j-1], pois[j]
		}
	}
}

// CorrectnessProbability implements Lemma 3.2: with POIs Poisson
// distributed at density lambda (POIs per square unit), the probability
// that no POI hides in an unverified region of the given area is
// e^{-lambda * area}.
func CorrectnessProbability(lambda, area float64) float64 {
	if area <= 0 {
		return 1
	}
	if lambda < 0 {
		lambda = 0
	}
	return math.Exp(-lambda * area)
}
