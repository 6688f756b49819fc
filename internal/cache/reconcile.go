// Versioned cache reconciliation (DESIGN.md §12). When the POI database
// mutates, the server broadcasts invalidation reports; this file applies
// them to cached verified regions. The repair is surgical: instead of
// discarding a whole region because one POI inside it churned, the region
// is shrunk around the invalidated index cells with
// geom.AppendSubtractRect and the surviving sub-rectangles stay exact at
// the new epoch.
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

// InvalSet is the item list of one invalidation report, indexed once per
// IR frame so that a region no mutation touches — nearly every region a
// peer serves — is recognised without allocating. The zero value is the
// empty report.
type InvalSet struct {
	items []Invalidation
	// removedAt maps a POI id to the newest epoch that deleted or moved it.
	removedAt map[int64]int64
}

// NewInvalSet indexes items, which it keeps and must not be modified
// afterwards.
func NewInvalSet(items []Invalidation) InvalSet {
	s := InvalSet{items: items, removedAt: make(map[int64]int64)}
	for _, inv := range items {
		if inv.Kind != InvalDelete && inv.Kind != InvalMove {
			continue
		}
		if at, ok := s.removedAt[inv.ID]; !ok || inv.Epoch > at {
			s.removedAt[inv.ID] = inv.Epoch
		}
	}
	return s
}

// removes reports whether a mutation newer than epoch deleted or moved id.
func (s InvalSet) removes(id, epoch int64) bool {
	at, ok := s.removedAt[id]
	return ok && at > epoch
}

// cuts reports whether inv places a POI in a cell meeting r, later than r
// was verified.
func (inv *Invalidation) cuts(r *Region) bool {
	return inv.Epoch > r.Epoch && (inv.Kind == InvalInsert || inv.Kind == InvalMove) &&
		inv.Cell.Intersects(r.Rect)
}

// Touches reports whether any mutation newer than r.Epoch removes one of
// r's POIs or places one inside r.
func (s InvalSet) Touches(r *Region) bool {
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

	cells, rects []geom.Rect
	pieces       []Region
	owner, count []int32  // per POI its piece or -1; per piece its POI count
	staged       []Region // Cache.Reconcile's output before it is copied back
}

// ReconcileRegion applies the invalidations newer than r.Epoch. The second
// result reports whether any of them touched the region. When none did,
// the content already matches the new epoch: the result is (nil, false),
// nothing was written, and the caller keeps r as it is, at epoch. When
// one did, the result is the surviving exact sub-regions, each stamped
// with epoch — nil if the region could not be soundly repaired (shrunk to
// nothing or over-fragmented). The pieces are s's, valid until its next
// repair, their POIs cut from s.POIs; a warm scratch allocates nothing.
func ReconcileRegion(s *RepairScratch, r *Region, invals InvalSet, epoch int64) ([]Region, bool) {
	if !invals.Touches(r) {
		return nil, false
	}
	cells := s.cells[:0]
	for i := range invals.items {
		if inv := &invals.items[i]; inv.cuts(r) {
			cells = append(cells, inv.Cell)
		}
	}
	s.cells = cells
	s.rects = geom.AppendSubtractRect(s.rects[:0], r.Rect, cells)
	rects := s.rects
	if len(rects) == 0 || len(rects) > maxReconcilePieces {
		return nil, true
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
		p := Region{Rect: rect, Stamp: r.Stamp, Epoch: epoch, Born: r.Born}
		if hi := count[k]; hi > lo {
			p.POIs = pois[lo:hi:hi]
		}
		pieces, lo = append(pieces, p), count[k]
	}
	s.pieces = pieces
	return pieces, true
}

// Reconcile applies an invalidation report to every cached region.
// Regions already at the report epoch are untouched; superseded regions
// are surgically repaired (or all dropped when discard is set — the
// whole-discard ablation); regions older than horizon-1 predate the
// report's memory and stay cached for query-time demotion.
func (c *Cache) Reconcile(s *RepairScratch, epoch, horizon int64, invals InvalSet, discard bool) Recon {
	var rec Recon
	// A repair can fan one region out into several pieces, so the output
	// cannot reuse the array being iterated: it is staged in the scratch
	// and copied back.
	out := s.staged[:0]
	size := 0
	for i := range c.regions {
		r := &c.regions[i]
		switch {
		case r.Epoch >= epoch:
			out = append(out, *r)
			size += cost(*r)
		case discard:
			rec.Discarded++
		case r.Epoch < horizon-1:
			rec.BeyondHorizon++
			out = append(out, *r)
			size += cost(*r)
		default:
			pieces, touched := ReconcileRegion(s, r, invals, epoch)
			switch {
			case !touched:
				r.Epoch = epoch
				out = append(out, *r)
				size += cost(*r)
			case pieces == nil:
				rec.Discarded++
			default:
				rec.Repaired++
				rec.Pieces += len(pieces)
				// The cache retains the pieces, so their POIs leave the
				// arena: one exact-size array per repaired region.
				kept := 0
				for k := range pieces {
					kept += len(pieces[k].POIs)
				}
				pois := make([]broadcast.POI, 0, kept)
				for _, p := range pieces {
					pois = append(pois, p.POIs...)
					p.POIs = pois[len(pois)-len(p.POIs) : len(pois) : len(pois)]
					out = append(out, p)
					size += cost(p)
				}
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
