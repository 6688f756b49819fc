package trust

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
)

// refEngine is the test oracle for Engine: the engine as it stood before
// Screen became a scratch-based kernel, kept verbatim — per-screen maps,
// a quarantine set re-indexed on every screen and on every eviction, the
// |a|·|b| restrictAgree, geom.AppendSubtractRect with a one-element cover
// list into fresh slices, pieceOwns per (piece, POI), in-place cross-pool
// dedup on copied POI slices. A hole cuts the pieces whose interior it
// overlaps, as the production cut kernel does; the retired rule, under
// which a hole that only touches a piece split it too, is cut beside it
// and must leave every claim the same point set (touchCuts,
// touchMismatch). TestScreenMatchesReference drives it and
// the production engine from one seed and requires every observable to
// be equal after every screen. What it subtracts moved with the rule: the
// quarantine's outline, derived from the ledger by brute force on every
// screen (bruteOutline). With everyRect set it subtracts as it did before
// the outline — every live rectangle, in insertion order — which is what
// TestOutlineSubtractsTheSameSet holds the outline to, as a point set.
type refEngine struct {
	cfg      Config
	rng      *rand.Rand
	breakers *p2p.BreakerSet
	seq      int64
	peers    map[int]*refPeerRec
	quar     []quarRect
	quarIdx  map[geom.Rect]int // rect → index in quar (dedup)
	counters Counters

	everyRect bool
	outline   []geom.Rect // of the last screen's ledger

	// scratch reused across screens
	pieces []geom.Rect

	// touchCuts counts the claims the retired rule cut into other pieces;
	// touchMismatch describes the first whose point set differed.
	touchCuts     int
	touchMismatch string
}

// bruteOutline derives the outline from a live ledger in insertion order:
// the rectangles no other one contains, by comparing all pairs, sorted
// largest first by a stable sort, so equal areas stay oldest first.
func bruteOutline(live []quarRect) []geom.Rect {
	var out []geom.Rect
	for i, q := range live {
		covered := false
		for j := 0; j < len(live) && !covered; j++ {
			covered = j != i && live[j].r.ContainsRect(q.r)
		}
		if !covered {
			out = append(out, q.r)
		}
	}
	slices.SortStableFunc(out, func(a, b geom.Rect) int { return cmp.Compare(b.Area(), a.Area()) })
	return out
}

// holes is what a tainted region is cut by, in order.
func (e *refEngine) holes() []geom.Rect {
	e.outline = bruteOutline(e.quar)
	if !e.everyRect {
		return e.outline
	}
	out := make([]geom.Rect, len(e.quar))
	for i, q := range e.quar {
		out[i] = q.r
	}
	return out
}

type refPeerRec struct {
	vouchedUntil     int64
	quarantinedUntil int64
	strikes          int
}

func newRefEngine(seed int64, cfg Config, breakers *p2p.BreakerSet) *refEngine {
	return &refEngine{
		cfg:      cfg.Normalized(),
		rng:      rand.New(rand.NewSource(seed)),
		breakers: breakers,
		peers:    make(map[int]*refPeerRec),
		quarIdx:  make(map[geom.Rect]int),
	}
}

func (e *refEngine) auditCost(nPOIs int) int64 {
	per := int64(e.cfg.auditPOIsPerSlot)
	return e.cfg.auditBaseSlots + (int64(nPOIs)+per-1)/per
}

// Quarantined reports whether peer id is currently quarantined. Safe on
// nil (never).
func (e *refEngine) Quarantined(id int) bool {
	if e == nil || id == Self {
		return false
	}
	rec, ok := e.peers[id]
	return ok && rec.quarantinedUntil > e.seq
}

// Vouched reports whether peer id is currently vouched with no standing
// strikes — the condition for its contributions to stay untainted. Safe
// on nil (never).
func (e *refEngine) Vouched(id int) bool {
	if e == nil {
		return false
	}
	if id == Self {
		return true
	}
	rec, ok := e.peers[id]
	return ok && rec.vouchedUntil > e.seq && rec.strikes == 0 && rec.quarantinedUntil <= e.seq
}

// rec returns (creating if needed) peer id's reputation record.
func (e *refEngine) rec(id int) *refPeerRec {
	r, ok := e.peers[id]
	if !ok {
		r = &refPeerRec{}
		e.peers[id] = r
	}
	return r
}

// convict quarantines peer id and forces its breaker open. Idempotent
// within one screen (a peer both conflicted and audit-failed counts
// once, tracked through the screen's convicted set).
func (e *refEngine) convict(id int, rep *Report, convicted map[int]bool) {
	if id == Self || convicted[id] {
		return
	}
	convicted[id] = true
	r := e.rec(id)
	r.quarantinedUntil = e.seq + e.cfg.quarantineCycles
	r.vouchedUntil = 0
	r.strikes = 0
	e.counters.PeersQuarantined++
	rep.Convictions++
	e.breakers.ForceOpen(id)
}

// strike records one cross-validation strike against peer id, unvouching
// it; convictStrikes standing strikes convict.
func (e *refEngine) strike(id int, rep *Report, convicted map[int]bool) {
	if id == Self {
		return
	}
	r := e.rec(id)
	r.vouchedUntil = 0
	r.strikes++
	if r.strikes >= e.cfg.convictStrikes {
		e.convict(id, rep, convicted)
	}
}

// quarantineRect adds (or refreshes) one rectangle in the decaying
// quarantine set. The same pair of disagreeing regions resurfaces
// screen after screen under a sustained attack, so an already-known
// rectangle only has its decay horizon extended — it is not re-counted
// as newly quarantined area. The live set is capped at maxQuarRects by
// evicting the oldest entry.
func (e *refEngine) quarantineRect(r geom.Rect, rep *Report) {
	until := e.seq + e.cfg.quarantineCycles
	if i, ok := e.quarIdx[r]; ok {
		if e.quar[i].until < until {
			e.quar[i].until = until
		}
		return
	}
	if len(e.quar) >= maxQuarRects {
		delete(e.quarIdx, e.quar[0].r)
		e.quar = append(e.quar[:0], e.quar[1:]...)
		for i, q := range e.quar {
			e.quarIdx[q.r] = i
		}
	}
	e.quarIdx[r] = len(e.quar)
	e.quar = append(e.quar, quarRect{r: r, until: until})
	rep.QuarantinedArea += r.Area()
	e.counters.QuarantinedArea += r.Area()
}

// restrictAgree reports whether two claims agree on the overlap rect:
// each claim's POIs inside the overlap must appear identically in the
// other claim.
func restrictAgreeRef(overlap geom.Rect, a, b []broadcast.POI) bool {
	contains := func(set []broadcast.POI, p broadcast.POI) bool {
		for _, q := range set {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, p := range a {
		if overlap.Contains(p.Pos) && !contains(b, p) {
			return false
		}
	}
	for _, p := range b {
		if overlap.Contains(p.Pos) && !contains(a, p) {
			return false
		}
	}
	return true
}

// Screen runs one query's trust pass over the collected contributions:
// drops quarantined peers, cross-validates overlapping VRs, spot-audits
// a seeded sample against the oracle within the slot budget, subtracts
// quarantined rectangles, and marks every surviving piece with its taint
// verdict. budget is the query's remaining deadline budget in slots
// (negative means unlimited); audits that do not fit are skipped.
//
// Safe on nil: contributions pass through untainted and unscreened (the
// defense is off; this is the seed behavior).
func (e *refEngine) screenReference(contribs []Contribution, oracle Oracle, budget int64) ([]Result, Report) {
	if e == nil {
		out := make([]Result, 0, len(contribs))
		for _, c := range contribs {
			out = append(out, Result{Peer: c.Peer, VR: c.VR, POIs: c.POIs, Tainted: c.Stale})
		}
		return out, Report{}
	}
	e.seq++
	var rep Report

	// Decay expired quarantine rectangles (insertion order preserved).
	live := e.quar[:0]
	for _, q := range e.quar {
		if q.until > e.seq {
			live = append(live, q)
		} else {
			delete(e.quarIdx, q.r)
		}
	}
	e.quar = live
	for i, q := range e.quar {
		e.quarIdx[q.r] = i
	}

	// Drop contributions from quarantined peers outright.
	kept := make([]Contribution, 0, len(contribs))
	for _, c := range contribs {
		if e.Quarantined(c.Peer) {
			continue
		}
		kept = append(kept, c)
	}

	// Cross-validation: every overlapping pair must agree on the overlap.
	convicted := make(map[int]bool)
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			if kept[i].Peer == kept[j].Peer {
				continue // two regions of one cache cannot witness each other
			}
			if kept[i].AuditOnly || kept[j].AuditOnly {
				continue // an audit-only claim is never cross-validated
			}
			overlap, ok := kept[i].VR.Intersect(kept[j].VR)
			if !ok || overlap.Empty() {
				continue
			}
			if restrictAgreeRef(overlap, kept[i].POIs, kept[j].POIs) {
				continue
			}
			// Third verdict: a disagreement involving a stale claimant is
			// expected under churn — the stale side is already demoted, so
			// amnesty both and leave reputations untouched. Counting it as
			// a byzantine conflict would let honest churn strike honest
			// peers into quarantine.
			if kept[i].Stale || kept[j].Stale {
				rep.StaleConflicts++
				e.counters.StaleVerdicts++
				continue
			}
			rep.Conflicts++
			e.counters.ConflictsDetected++
			// An audit-backed vouch outweighs an unvouched accuser: when
			// exactly one claimant is vouched, the other one lied (a
			// byzantine peer can never be vouched), so strike it alone and
			// let the vouched claim stand. Otherwise the engine cannot
			// tell who lied: quarantine the overlap out of the merge and
			// strike both claimants.
			iv, jv := e.Vouched(kept[i].Peer), e.Vouched(kept[j].Peer)
			switch {
			case iv && !jv:
				e.strike(kept[j].Peer, &rep, convicted)
			case jv && !iv:
				e.strike(kept[i].Peer, &rep, convicted)
			default:
				e.quarantineRect(overlap, &rep)
				e.strike(kept[i].Peer, &rep, convicted)
				e.strike(kept[j].Peer, &rep, convicted)
			}
		}
	}

	// Spot audits: seeded contribution-level sampling, priced in slots
	// against the deadline budget, capped per query. The audit runs on
	// the *original* claim (pre-subtraction): under the always-material
	// adversary model this makes a sampled lie impossible to miss, which
	// is what keeps byzantine peers permanently unvouchable.
	audits := 0
	for _, c := range kept {
		// Stale contributions are skipped before the sampling draw: the
		// claim predates the current epoch, so re-verifying it against
		// current truth would convict an honest peer for churn.
		if c.Peer == Self || c.Stale || convicted[c.Peer] || e.Quarantined(c.Peer) {
			continue
		}
		if audits >= e.cfg.maxAuditsPerQuery {
			break
		}
		if e.rng.Float64() >= e.cfg.AuditRate {
			continue
		}
		cost := e.auditCost(len(c.POIs))
		if budget >= 0 && rep.AuditSlots+cost > budget {
			continue // cannot afford within the deadline
		}
		audits++
		rep.Audits++
		rep.AuditSlots += cost
		e.counters.AuditsRun++
		e.counters.AuditSlots += cost
		truth := oracle(c.VR)
		if claimHonest(c.VR, c.POIs, truth) {
			// Vouch and forgive standing strikes: the ground truth just
			// testified for the peer, so conflicts it lost to unvouched
			// accusers no longer count against it.
			r := e.rec(c.Peer)
			r.vouchedUntil = e.seq + e.cfg.vouchCycles
			r.strikes = 0
			continue
		}
		rep.AuditFailures++
		e.counters.AuditFailures++
		e.convict(c.Peer, &rep, convicted)
		rep.QuarantinedArea += c.VR.Area()
		e.counters.QuarantinedArea += c.VR.Area()
	}

	// Assemble: convicted peers drop out entirely; everything else is
	// reduced by the quarantine set and marked with its taint verdict.
	out := make([]Result, 0, len(kept))
	taintedPeers := make(map[int]bool)
	holes := e.holes()
	for _, c := range kept {
		if convicted[c.Peer] || e.Quarantined(c.Peer) || c.AuditOnly {
			continue
		}
		tainted := c.Stale || !e.Vouched(c.Peer)
		if tainted && !taintedPeers[c.Peer] {
			taintedPeers[c.Peer] = true
			rep.Tainted++
		}
		e.pieces = e.pieces[:0]
		e.pieces = append(e.pieces, c.VR)
		// Rectangle quarantine is defense-in-depth for *unvouched*
		// claims. A vouched claim is audit-backed, so it stands whole:
		// subtracting disputed rectangles from the trusted population
		// would let an attacker pulverize the honest MVR merely by
		// disputing it (the coverage-collapse failure mode).
		if tainted {
			touch := []geom.Rect{c.VR}
			for _, h := range holes {
				if !c.VR.Intersects(h) {
					continue
				}
				next, old := e.pieces[:0:0], []geom.Rect(nil)
				for _, piece := range e.pieces {
					if overlapsInterior(piece, h) {
						next = geom.AppendSubtractRect(next, piece, []geom.Rect{h})
					} else {
						next = append(next, piece)
					}
				}
				for _, piece := range touch {
					old = geom.AppendSubtractRect(old, piece, []geom.Rect{h})
				}
				e.pieces, touch = next, old
			}
			if !slices.Equal(touch, e.pieces) {
				e.touchCuts++
				if !samePointSet(touch, e.pieces) && e.touchMismatch == "" {
					e.touchMismatch = fmt.Sprintf("peer %d region %v: pieces %v, retired rule %v", c.Peer, c.VR, e.pieces, touch)
				}
			}
		}
		for _, piece := range e.pieces {
			if piece.Empty() {
				continue
			}
			r := Result{Peer: c.Peer, VR: piece, Tainted: tainted}
			for _, p := range c.POIs {
				if pieceOwns(e.pieces, piece, p.Pos) {
					r.POIs = append(r.POIs, p)
				}
			}
			out = append(out, r)
		}
	}

	// Cross-pool POI dedup: core's candidate dedup assumes one POI ID
	// appears in only one trust pool, so drop from tainted pieces any
	// POI an untainted piece already vouches for (the untrusted copy
	// adds nothing).
	trusted := make(map[int64]bool)
	for _, r := range out {
		if !r.Tainted {
			for _, p := range r.POIs {
				trusted[p.ID] = true
			}
		}
	}
	for i := range out {
		if !out[i].Tainted {
			continue
		}
		kept := out[i].POIs[:0]
		for _, p := range out[i].POIs {
			if !trusted[p.ID] {
				kept = append(kept, p)
			}
		}
		out[i].POIs = kept
	}
	return out, rep
}

// pieceOwns reports whether piece is the first piece in pieces (closed)
// containing pos — the tiebreak that keeps a boundary POI from being
// duplicated across adjacent subtraction pieces.
// overlapsInterior reports whether a and b share interior points.
func overlapsInterior(a, b geom.Rect) bool {
	return a.Min.X < b.Max.X && b.Min.X < a.Max.X && a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y
}

// samePointSet reports whether two families of rectangles cover the same
// point set, brute force: on the grid all their edges cut the plane into,
// a cell's midpoint lies in one family exactly when it lies in the other.
func samePointSet(a, b []geom.Rect) bool {
	var xs, ys []float64
	for _, r := range append(slices.Clone(a), b...) {
		xs = append(xs, r.Min.X, r.Max.X)
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	slices.Sort(xs)
	slices.Sort(ys)
	in := func(rs []geom.Rect, p geom.Point) bool {
		return slices.ContainsFunc(rs, func(r geom.Rect) bool { return r.Contains(p) })
	}
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			if xs[i] == xs[i+1] || ys[j] == ys[j+1] {
				continue
			}
			mid := geom.Pt((xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2)
			if in(a, mid) != in(b, mid) {
				return false
			}
		}
	}
	return true
}

func pieceOwns(pieces []geom.Rect, piece geom.Rect, pos geom.Point) bool {
	for _, p := range pieces {
		if p.Empty() {
			continue
		}
		if p.Contains(pos) {
			return p == piece
		}
	}
	return false
}

// pairOracle is the test oracle for detectConflicts: the pair loop it
// replaced, kept verbatim apart from holding its own scratch — every
// i < j pair of slots, strict overlap by comparisons, each slot's POIs
// ordered on first demand, the two restrictions compared by one merge.
// FuzzDetectConflicts and TestDetectConflictsMatchesPairLoop require the
// coverage check to produce this list element for element.
type pairOracle struct {
	sorted []broadcast.POI // ordered POI indices, one run per slot that asked
	// sorted[lo[i]:hi[i]] is slot i's run; lo[i] < 0 until a strictly
	// overlapping partner asks for it.
	lo, hi []int32
}

// comparePOI orders POIs by (X, Y, ID): position first, so that the POIs
// inside a rectangle sit in one run of the order (see restrictAgree). On
// NaN-free positions two POIs compare equal exactly when they are == (the
// order has no opinion on the sign of a zero, and neither has ==).
func comparePOI(a, b broadcast.POI) int {
	switch {
	case a.Pos.X != b.Pos.X:
		if a.Pos.X < b.Pos.X {
			return -1
		}
		return 1
	case a.Pos.Y != b.Pos.Y:
		if a.Pos.Y < b.Pos.Y {
			return -1
		}
		return 1
	case a.ID != b.ID:
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	return 0
}

// orderPOIs builds slot i's POIs in comparePOI order, each once, as the
// run o.sorted[o.lo[i]:o.hi[i]]. POIs at a NaN position are left out: no
// rectangle contains them, so no overlap ever asks about them.
func (o *pairOracle) orderPOIs(i int, pois []broadcast.POI) {
	lo := len(o.sorted)
	for _, p := range pois {
		if p.Pos.X == p.Pos.X && p.Pos.Y == p.Pos.Y {
			o.sorted = append(o.sorted, p)
		}
	}
	slices.SortFunc(o.sorted[lo:], comparePOI)
	o.sorted = o.sorted[:lo+len(slices.Compact(o.sorted[lo:]))]
	o.lo[i], o.hi[i] = int32(lo), int32(len(o.sorted))
}

// restrictAgree reports whether two claims agree on the overlap rect:
// each claim's POIs inside the overlap must appear identically in the
// other claim. a and b are duplicate-free and in comparePOI order, so the
// two restrictions are compared as sets by one merge — and only over the
// run of each list whose x lies in the overlap's x-range: everything left
// of it is skipped on one comparison each, everything right of it is
// never looked at.
func restrictAgree(overlap geom.Rect, a, b []broadcast.POI) bool {
	i, j := 0, 0
	for i < len(a) && a[i].Pos.X < overlap.Min.X {
		i++
	}
	for j < len(b) && b[j].Pos.X < overlap.Min.X {
		j++
	}
	for {
		i = nextInside(overlap, a, i)
		j = nextInside(overlap, b, j)
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
		i++
		j++
	}
}

// nextInside returns the index of the first POI of s[i:] inside r, or
// len(s). s is in comparePOI order and s[i:] starts at or right of
// r.Min.X.
func nextInside(r geom.Rect, s []broadcast.POI, i int) int {
	for ; i < len(s); i++ {
		pos := s[i].Pos
		if pos.X > r.Max.X {
			return len(s)
		}
		if pos.Y >= r.Min.Y && pos.Y <= r.Max.Y {
			return i
		}
	}
	return len(s)
}

// detectConflicts returns every pair of slots, in (i, j) order, whose
// regions strictly overlap and whose claims disagree on the overlap.
func (o *pairOracle) detectConflicts(slots []slot, contribs []Contribution) []conflict {
	o.sorted = o.sorted[:0]
	o.lo, o.hi = o.lo[:0], o.hi[:0]
	for range slots {
		o.lo, o.hi = append(o.lo, -1), append(o.hi, -1)
	}
	var conflicts []conflict
	for i := range slots {
		a := &slots[i]
		av := a.vr
		if av.Empty() || a.auditOnly {
			continue
		}
		for j := i + 1; j < len(slots); j++ {
			b := &slots[j]
			// Strict overlap of two non-empty rectangles by comparisons
			// alone; most pairs end here.
			if !(av.Min.X < b.vr.Max.X && b.vr.Min.X < av.Max.X &&
				av.Min.Y < b.vr.Max.Y && b.vr.Min.Y < av.Max.Y) {
				continue
			}
			if a.peer == b.peer || b.vr.Empty() || b.auditOnly {
				continue // two regions of one cache cannot witness each other
			}
			if o.lo[i] < 0 {
				o.orderPOIs(i, contribs[a.ci].POIs)
			}
			if o.lo[j] < 0 {
				o.orderPOIs(j, contribs[b.ci].POIs)
			}
			overlap, _ := av.Intersect(b.vr)
			if restrictAgree(overlap, o.sorted[o.lo[i]:o.hi[i]], o.sorted[o.lo[j]:o.hi[j]]) {
				continue
			}
			conflicts = append(conflicts, conflict{i: int32(i), j: int32(j), overlap: overlap})
		}
	}
	return conflicts
}
