package cache

import (
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

func newRepairScratch() *RepairScratch {
	return &RepairScratch{POIs: new(broadcast.POIArena)}
}

// poisOf flattens a region list's POI ids for set comparison.
func poisOf(regions []Region) map[int64]bool {
	out := map[int64]bool{}
	for _, r := range regions {
		for _, p := range r.POIs {
			out[p.ID] = true
		}
	}
	return out
}

func TestReconcileRegionUntouchedBumpsEpoch(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 4, 4), 1, 2)
	r.Epoch, r.Born, r.Stamp = 3, 7, 9
	// A mutation at or below the region's epoch is already reflected.
	invals := []Invalidation{
		{Epoch: 3, Kind: InvalDelete, ID: 1},
		{Epoch: 5, Kind: InvalInsert, ID: 99, Cell: geom.NewRect(10, 10, 11, 11)}, // disjoint
	}
	set := newInvalSet(5, 3, invals)
	if v := set.Verdict(&r, false); v != Current {
		t.Fatalf("disjoint/old mutations must leave the region current, got %v", v)
	}
	// The cache keeps the region, at the new epoch.
	c := New(100, LRU)
	c.Insert(r, geom.Pt(0, 0), geom.Point{}, 7)
	c.Regions()[0].Stamp = 9
	if rec := c.Reconcile(newRepairScratch(), &set, false); rec != (Recon{}) {
		t.Fatalf("untouched region counted as work: %+v", rec)
	}
	got := c.Regions()
	if len(got) != 1 || got[0].Epoch != 5 || got[0].Born != 7 || got[0].Stamp != 9 || got[0].Rect != r.Rect {
		t.Fatalf("fast path mangled region: %+v", got)
	}
	if len(got[0].POIs) != 2 {
		t.Fatalf("fast path dropped POIs: %d", len(got[0].POIs))
	}
}

func TestReconcileRegionDeleteStripsPOI(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 4, 4), 1, 2, 3)
	invals := []Invalidation{{Epoch: 1, Kind: InvalDelete, ID: 2}}
	set := newInvalSet(1, 1, invals)
	if v := set.Verdict(&r, false); v != Repair {
		t.Fatalf("delete of a contained POI judged %v, want Repair", v)
	}
	pieces := ReconcileRegion(newRepairScratch(), &r, &set)
	got := poisOf(pieces)
	if got[2] || !got[1] || !got[3] {
		t.Fatalf("delete reconciliation wrong survivors: %v", got)
	}
	// Geometry must be preserved: a pure delete subtracts no cells.
	if len(pieces) != 1 || pieces[0].Rect != r.Rect {
		t.Fatalf("pure delete changed geometry: %+v", pieces)
	}
}

func TestReconcileRegionInsertSubtractsCell(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 8, 8), 1, 2, 3)
	cell := geom.NewRect(3, 3, 5, 5)
	invals := []Invalidation{{Epoch: 2, Kind: InvalInsert, ID: 50, Cell: cell}}
	set := newInvalSet(2, 1, invals)
	if v := set.Verdict(&r, false); v != Repair {
		t.Fatalf("insert inside region judged %v, want Repair", v)
	}
	pieces := ReconcileRegion(newRepairScratch(), &r, &set)
	if len(pieces) == 0 {
		t.Fatal("insert inside region not repaired")
	}
	for _, p := range pieces {
		if in, ok := p.Rect.Intersect(cell); ok && in.Width() > 1e-12 && in.Height() > 1e-12 {
			t.Fatalf("surviving piece %v overlaps invalidated cell %v", p.Rect, cell)
		}
		if p.Epoch != 2 {
			t.Fatalf("piece not stamped with new epoch: %+v", p)
		}
	}
	// Every surviving POI outside the cell must still be owned by exactly
	// one piece.
	want := 0
	for _, p := range r.POIs {
		if !cell.Contains(p.Pos) {
			want++
		}
	}
	if got := len(poisOf(pieces)); got != want {
		t.Fatalf("surviving POIs %d, want %d", got, want)
	}
}

func TestReconcileRegionShrinkToEmpty(t *testing.T) {
	r := mkRegion(geom.NewRect(2, 2, 3, 3), 1)
	// The invalidated cell swallows the whole region.
	invals := []Invalidation{{Epoch: 1, Kind: InvalMove, ID: 77, Cell: geom.NewRect(0, 0, 10, 10)}}
	set := newInvalSet(1, 1, invals)
	if pieces := ReconcileRegion(newRepairScratch(), &r, &set); pieces != nil {
		t.Fatalf("shrink-to-empty must return nil, got %v", pieces)
	}
}

func TestReconcileRegionFragmentationCap(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 100, 1), 1)
	r.POIs = nil
	// A picket fence of thin cells fragments the strip past the cap.
	var invals []Invalidation
	for i := 0; i < maxReconcilePieces+2; i++ {
		x := float64(i)*3 + 1
		invals = append(invals, Invalidation{
			Epoch: 1, Kind: InvalInsert, ID: int64(100 + i),
			Cell: geom.NewRect(x, 0, x+0.5, 1)})
	}
	set := newInvalSet(1, 1, invals)
	if pieces := ReconcileRegion(newRepairScratch(), &r, &set); pieces != nil {
		t.Fatalf("over-fragmented repair must drop the region, got %d pieces", len(pieces))
	}
}

func TestCacheReconcileFreshAndBeyondHorizon(t *testing.T) {
	c := New(100, LRU)
	fresh := mkRegion(geom.NewRect(0, 0, 1, 1), 1)
	fresh.Epoch = 10
	ancient := mkRegion(geom.NewRect(5, 5, 6, 6), 2)
	ancient.Epoch = 1
	c.Insert(fresh, geom.Pt(0, 0), geom.Point{}, 0)
	c.Insert(ancient, geom.Pt(0, 0), geom.Point{}, 0)

	// Report: epoch 10, horizon 8 — fresh is current, ancient predates the
	// report's memory (1 < 8-1) and must survive untouched for demotion.
	set := newInvalSet(10, 8, nil)
	rec := c.Reconcile(newRepairScratch(), &set, false)
	if rec.Repaired != 0 || rec.Discarded != 0 || rec.BeyondHorizon != 1 {
		t.Fatalf("unexpected recon: %+v", rec)
	}
	if len(c.Regions()) != 2 {
		t.Fatalf("regions lost: %d", len(c.Regions()))
	}
	for _, r := range c.Regions() {
		if r.Rect == ancient.Rect && r.Epoch != 1 {
			t.Fatalf("beyond-horizon region epoch rewritten: %d", r.Epoch)
		}
	}
}

func TestCacheReconcileWholeDiscard(t *testing.T) {
	c := New(100, LRU)
	old := mkRegion(geom.NewRect(0, 0, 4, 4), 1, 2)
	old.Epoch = 4
	c.Insert(old, geom.Pt(0, 0), geom.Point{}, 0)
	set := newInvalSet(5, 4, nil)
	rec := c.Reconcile(newRepairScratch(), &set, true)
	if rec.Discarded != 1 || len(c.Regions()) != 0 || c.Size() != 0 {
		t.Fatalf("whole-discard kept data: %+v regions=%d size=%d",
			rec, len(c.Regions()), c.Size())
	}
}

func TestCacheReconcileEvictedRegionIsNoOp(t *testing.T) {
	// An IR item naming a region (by cell) the cache no longer holds must
	// change nothing: reconciliation works on present state only.
	c := New(10, LRU)
	r := mkRegion(geom.NewRect(0, 0, 2, 2), 1)
	c.Insert(r, geom.Pt(0, 0), geom.Point{}, 0)
	c.Clear() // the region is gone before the report arrives
	set := newInvalSet(3, 2, []Invalidation{
		{Epoch: 3, Kind: InvalInsert, ID: 9, Cell: geom.NewRect(0, 0, 2, 2)},
	})
	rec := c.Reconcile(newRepairScratch(), &set, false)
	if rec != (Recon{}) || len(c.Regions()) != 0 || c.Size() != 0 {
		t.Fatalf("reconcile of empty cache did something: %+v", rec)
	}
}

func TestCacheReconcileFanOutKeepsUnvisitedRegions(t *testing.T) {
	// Regression guard for the output-aliasing hazard: a region early in
	// the scan fanning out into several pieces must not overwrite regions
	// the scan has not visited yet.
	c := New(1000, LRU)
	big := mkRegion(geom.NewRect(0, 0, 9, 9), 1, 2, 3)
	big.Epoch = 1
	tail1 := mkRegion(geom.NewRect(20, 20, 21, 21), 40)
	tail1.Epoch = 2
	tail2 := mkRegion(geom.NewRect(30, 30, 31, 31), 41)
	tail2.Epoch = 2
	c.Insert(big, geom.Pt(0, 0), geom.Point{}, 0)
	c.Insert(tail1, geom.Pt(0, 0), geom.Point{}, 0)
	c.Insert(tail2, geom.Pt(0, 0), geom.Point{}, 0)
	set := newInvalSet(2, 1, []Invalidation{
		{Epoch: 2, Kind: InvalInsert, ID: 90, Cell: geom.NewRect(4, 4, 5, 5)},
	})
	rec := c.Reconcile(newRepairScratch(), &set, false)
	if rec.Repaired != 1 || rec.Pieces < 2 {
		t.Fatalf("expected a fan-out repair: %+v", rec)
	}
	got := poisOf(c.Regions())
	for _, id := range []int64{40, 41} {
		if !got[id] {
			t.Fatalf("unvisited tail region lost POI %d: %v", id, got)
		}
	}
}

func TestExpireBeforeTickBoundary(t *testing.T) {
	c := New(100, LRU)
	for i, born := range []int64{5, 6, 7} {
		r := mkRegion(geom.NewRect(float64(i), 0, float64(i)+1, 1), int64(i+1))
		c.Insert(r, geom.Pt(0, 0), geom.Point{}, 0)
		// Insert stamps Born from its now argument; rewrite for the test.
		regs := c.Regions()
		regs[len(regs)-1].Born = born
	}
	// Cutoff 6: regions born at 5 and exactly at 6 expire, 7 survives.
	if n := c.ExpireBefore(6); n != 2 {
		t.Fatalf("expired %d regions at boundary cutoff, want 2", n)
	}
	regs := c.Regions()
	if len(regs) != 1 || regs[0].Born != 7 {
		t.Fatalf("wrong survivor: %+v", regs)
	}
	if c.Size() != len(regs[0].POIs) {
		t.Fatalf("size not rebuilt: %d", c.Size())
	}
	// Second pass at the same cutoff is a no-op.
	if n := c.ExpireBefore(6); n != 0 {
		t.Fatalf("repeat expiry removed %d more", n)
	}
}

func TestInsertStampsBornAndShrinkPreservesVersion(t *testing.T) {
	c := New(2, LRU) // tiny capacity forces shrinkRegion
	r := mkRegion(geom.NewRect(0, 0, 8, 8), 1, 2, 3, 4, 5)
	r.Epoch = 6
	c.Insert(r, geom.Pt(0, 0), geom.Point{}, 42)
	regs := c.Regions()
	if len(regs) != 1 {
		t.Fatalf("regions=%d", len(regs))
	}
	if regs[0].Born != 42 {
		t.Fatalf("Born=%d, want insert time 42", regs[0].Born)
	}
	if regs[0].Epoch != 6 {
		t.Fatalf("shrink lost the epoch stamp: %d", regs[0].Epoch)
	}
	if len(regs[0].POIs) > 2 {
		t.Fatalf("capacity not honored: %d POIs", len(regs[0].POIs))
	}
}

// newInvalSet indexes a report in an InvalSet of its own.
func newInvalSet(epoch, horizon int64, items []Invalidation) InvalSet {
	var s InvalSet
	s.Reset(epoch, horizon, items)
	return s
}
