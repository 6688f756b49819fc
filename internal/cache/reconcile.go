// Versioned cache reconciliation (DESIGN.md §12). When the POI database
// mutates, the server broadcasts invalidation reports; this file applies
// them to cached verified regions. The repair is surgical: instead of
// discarding a whole region because one POI inside it churned, the region
// is cut around the invalidated index cells by the cut kernel
// geom.Uncovered (DESIGN.md §9.2) and the surviving sub-rectangles stay
// exact at the new epoch.
//
// Soundness argument (the invariant NNV relies on is "a region's POI list
// is exactly the database ∩ rect"): a mutation with epoch newer than the
// region's either (a) removes a POI by ID — delete and move both strip
// the stale entry from the list — or (b) places a POI inside an announced
// index cell — insert and move both subtract that cell from the rect, so
// the new POI's position cannot lie in any surviving piece. A region too
// old for the report's horizon cannot be repaired and is left in place
// for the caller to demote to the probabilistic path (missed-IR window
// policy: demotion, not fabricated exactness).
package cache

import (
	"cmp"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// InvalKind is the mutation class of one invalidation.
type InvalKind uint8

// Invalidation kinds, mirroring the wire IR item kinds.
const (
	InvalInsert InvalKind = 1
	InvalDelete InvalKind = 2
	InvalMove   InvalKind = 3
)

// Invalidation is one POI mutation to reconcile against: the epoch that
// created it, the POI id it removes (delete/move), and the index cell now
// containing the POI (insert/move).
type Invalidation struct {
	Epoch int64
	Kind  InvalKind
	ID    int64
	Cell  geom.Rect
}

// InvalSet is one invalidation report: its epoch, its horizon (the oldest
// epoch its items reach back to) and its items, indexed once per IR frame
// so that a region no mutation touches — nearly every region a peer
// serves — is recognised without allocating. The zero value is the empty
// report at epoch zero, under which every region is current.
type InvalSet struct {
	epoch, horizon int64
	items          []Invalidation
	// removed is every delete's and move's (id, epoch), by id and newest
	// first.
	removed []removal
}

type removal struct{ id, epoch int64 }

// Reset indexes the report of the given epoch and horizon in s's storage.
// It keeps items, which must not be modified until the next Reset.
func (s *InvalSet) Reset(epoch, horizon int64, items []Invalidation) {
	s.epoch, s.horizon, s.items = epoch, horizon, items
	s.removed = s.removed[:0]
	for i := range items {
		if inv := &items[i]; inv.Kind == InvalDelete || inv.Kind == InvalMove {
			s.removed = append(s.removed, removal{inv.ID, inv.Epoch})
		}
	}
	slices.SortFunc(s.removed, func(a, b removal) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(b.epoch, a.epoch))
	})
}

// removes reports whether a mutation newer than epoch deleted or moved id.
func (s *InvalSet) removes(id, epoch int64) bool {
	i, ok := slices.BinarySearchFunc(s.removed, id, func(r removal, id int64) int { return cmp.Compare(r.id, id) })
	return ok && s.removed[i].epoch > epoch
}

// cuts reports whether inv places a POI in a cell meeting r, later than r
// was verified.
func (inv *Invalidation) cuts(r *Region) bool {
	return inv.Epoch > r.Epoch && (inv.Kind == InvalInsert || inv.Kind == InvalMove) &&
		inv.Cell.Intersects(r.Rect)
}

// touches reports whether any mutation newer than r.Epoch removes one of
// r's POIs or places one inside r.
func (s *InvalSet) touches(r *Region) bool {
	for i := range r.POIs {
		if s.removes(r.POIs[i].ID, r.Epoch) {
			return true
		}
	}
	for i := range s.items {
		if s.items[i].cuts(r) {
			return true
		}
	}
	return false
}

// Verdict is what an invalidation report does to one cached region.
type Verdict uint8

const (
	// Current: the region is at the report's epoch, or no mutation since
	// its epoch reaches it. It stays exact as it is.
	Current Verdict = iota
	// Repair: a mutation within the report's memory reaches the region;
	// ReconcileRegion cuts it into the pieces that stay exact.
	Repair
	// Discard: the region is superseded and the whole-discard ablation
	// drops it.
	Discard
	// Demote: the region predates the report's memory, so the report
	// cannot say what changed in it. It is never exact again, but stays
	// probabilistic evidence (the missed-IR window policy).
	Demote
)

// Verdict judges r against the report; discard selects the whole-discard
// ablation, under which a superseded region is dropped unrepaired. This is
// the one place a region's fate under a report is decided: the cache's
// own pass, a peer's region at admission and a far claim's audit all ask
// it.
func (s *InvalSet) Verdict(r *Region, discard bool) Verdict {
	switch {
	case r.Epoch >= s.epoch:
		return Current
	case discard:
		return Discard
	case r.Epoch < s.horizon-1:
		return Demote
	case s.touches(r):
		return Repair
	}
	return Current
}

// maxReconcilePieces bounds the fragmentation one repair may produce;
// past it the region is dropped instead (sound: losing coverage never
// fabricates exactness, and a region shredded this badly is worth little).
const maxReconcilePieces = 32

// Recon summarizes one cache-wide reconciliation pass.
type Recon struct {
	// Repaired counts regions surgically shrunk (content was affected).
	Repaired int
	// Pieces is the total sub-regions the repaired regions became.
	Pieces int
	// Discarded counts regions dropped: every superseded region in
	// whole-discard mode, or repairs that fragmented past the cap or
	// shrank to nothing.
	Discarded int
	// BeyondHorizon counts regions older than the report horizon, left
	// in place for demotion at query time.
	BeyondHorizon int
}

// RepairScratch holds what one region's repair needs for the length of
// the call, reused across calls (DESIGN.md §9.1); set POIs before use.
type RepairScratch struct {
	// POIs is the arena the pieces' POI lists are cut from. Its owner
	// decides how long they live; the scratch never rewinds it.
	POIs *broadcast.POIArena

	cut          geom.Uncovered // the region less the cells newer mutations placed POIs in
	pieces       []Region
	owner, count []int32  // per POI its piece or -1; per piece its POI count
	staged       []Region // Cache.Reconcile's output before it is copied back
}

// ReconcileRegion repairs r, which the report judges Repair: it strips the
// POIs removed since r.Epoch and cuts out the cells newer mutations placed
// POIs in. The result is the surviving exact sub-regions, each stamped
// with the report's epoch — nil if the region could not be soundly
// repaired (shrunk to nothing or over-fragmented). The pieces are s's,
// valid until its next repair, their POIs cut from s.POIs; a warm scratch
// allocates nothing.
func ReconcileRegion(s *RepairScratch, r *Region, invals *InvalSet) []Region {
	s.cut.Reset(r.Rect)
	for i := range invals.items {
		if inv := &invals.items[i]; inv.cuts(r) && s.cut.Cut(inv.Cell) {
			return nil
		}
	}
	rects := s.cut.Pieces()
	if len(rects) > maxReconcilePieces {
		return nil
	}
	// First-containing-piece assignment keeps POI ownership disjoint when
	// a survivor sits exactly on a shared piece boundary.
	owner, count := s.owner[:0], append(s.count[:0], make([]int32, len(rects))...)
	for i := range r.POIs {
		o := int32(-1)
		if p := &r.POIs[i]; !invals.removes(p.ID, r.Epoch) {
			for k := range rects {
				if rects[k].Contains(p.Pos) {
					o = int32(k)
					count[k]++
					break
				}
			}
		}
		owner = append(owner, o)
	}
	s.owner, s.count = owner, count
	pois := s.POIs.Partition(r.POIs, owner, count)
	pieces, lo := s.pieces[:0], int32(0)
	for k, rect := range rects {
		p := Region{Rect: rect, Stamp: r.Stamp, Epoch: invals.epoch, Born: r.Born}
		if hi := count[k]; hi > lo {
			p.POIs = pois[lo:hi:hi]
		}
		pieces, lo = append(pieces, p), count[k]
	}
	s.pieces = pieces
	return pieces
}

// Reconcile applies an invalidation report to every cached region, as its
// Verdict says: a current region moves to the report's epoch, a repaired
// one is replaced by its pieces, a discarded one is dropped and a demoted
// one stays cached for query-time demotion.
func (c *Cache) Reconcile(s *RepairScratch, invals *InvalSet, discard bool) Recon {
	var rec Recon
	// A repair can fan one region out into several pieces, so the output
	// cannot reuse the array being iterated: it is staged in the scratch
	// and copied back.
	out := s.staged[:0]
	size := 0
	for i := range c.regions {
		r := &c.regions[i]
		switch invals.Verdict(r, discard) {
		case Current:
			r.Epoch = max(r.Epoch, invals.epoch)
			out = append(out, *r)
			size += cost(*r)
		case Demote:
			rec.BeyondHorizon++
			out = append(out, *r)
			size += cost(*r)
		case Discard:
			rec.Discarded++
		case Repair:
			pieces := ReconcileRegion(s, r, invals)
			if pieces == nil {
				rec.Discarded++
				continue
			}
			rec.Repaired++
			rec.Pieces += len(pieces)
			// The pieces' POIs leave the arena for the region's own array,
			// which no row aliases between queries (DESIGN.md §9.1 rule
			// 5); the caps keep a later repair of one piece out of another.
			pois := r.POIs[:0:len(r.POIs)]
			for _, p := range pieces {
				pois = append(pois, p.POIs...)
				p.POIs = pois[len(pois)-len(p.POIs) : len(pois) : len(pois)]
				out = append(out, p)
				size += cost(p)
			}
		}
	}
	clear(c.regions) // neither array may pin a dropped region's POIs
	c.regions = append(c.regions[:0], out...)
	clear(out)
	s.staged, c.size = out, size
	c.rebound()
	return rec
}

// ExpireBefore evicts every region born at or before cutoff (TTL expiry:
// a region exactly at the boundary is already too old) and returns how
// many were removed.
func (c *Cache) ExpireBefore(cutoff int64) int {
	out := c.regions[:0]
	size := 0
	for _, r := range c.regions {
		if r.Born <= cutoff {
			continue
		}
		out = append(out, r)
		size += cost(r)
	}
	n := len(c.regions) - len(out)
	for i := len(out); i < len(c.regions); i++ {
		c.regions[i] = Region{}
	}
	c.regions = out
	c.size = size
	c.rebound()
	return n
}
