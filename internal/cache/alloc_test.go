//go:build !race

// Excluded under the race detector: -race instruments allocations and
// makes AllocsPerRun counts meaningless.

package cache

import (
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// TestReconcileRegionUntouchedZeroAllocs pins the admission fast path: a
// client judges every region a peer serves (InvalSet.Verdict), and nearly
// all of them lie clear of every mutation in the report — deletes of POIs
// they never held, cells that miss them. Recognising that must not cost an
// allocation.
func TestReconcileRegionUntouchedZeroAllocs(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 4, 4), 1, 2, 3, 4, 5)
	r.Epoch = 2
	var items []Invalidation
	for i := int64(0); i < 40; i++ {
		items = append(items,
			Invalidation{Epoch: 3, Kind: InvalDelete, ID: 100 + i},
			Invalidation{Epoch: 3, Kind: InvalMove, ID: 200 + i, Cell: geom.NewRect(10, 10, 11, 11)},
			Invalidation{Epoch: 2, Kind: InvalDelete, ID: 1}) // already reflected
	}
	invals := newInvalSet(3, 1, items)
	allocs := testing.AllocsPerRun(100, func() {
		if v := invals.Verdict(&r, false); v != Current {
			t.Fatalf("untouched region judged %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("judging an untouched region allocates %.1f times per run, want 0", allocs)
	}
}

// TestReconcileRegionTouchedZeroAllocs pins the repair itself: with the
// scratch and the arena warm, cutting cells out of a region, stripping its
// deleted POIs and handing the survivors to their pieces allocates nothing
// — as long as the arena's owner rewinds it.
func TestReconcileRegionTouchedZeroAllocs(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 8, 8), 1, 2, 3, 4, 5, 6, 7)
	r.Epoch = 2
	invals := newInvalSet(4, 1, []Invalidation{
		{Epoch: 3, Kind: InvalDelete, ID: 2},
		{Epoch: 3, Kind: InvalInsert, ID: 90, Cell: geom.NewRect(3, 3, 4, 4)},
		{Epoch: 4, Kind: InvalMove, ID: 5, Cell: geom.NewRect(6, 1, 7, 2)},
		{Epoch: 4, Kind: InvalInsert, ID: 91, Cell: geom.NewRect(20, 20, 21, 21)},
	})
	s := newRepairScratch()
	repair := func() {
		s.POIs.Rewind()
		if pieces := ReconcileRegion(s, &r, &invals); len(pieces) < 4 {
			t.Fatalf("fixture not cut: %d pieces", len(pieces))
		}
	}
	repair() // warm the scratch and the arena
	if allocs := testing.AllocsPerRun(100, repair); allocs != 0 {
		t.Fatalf("touched ReconcileRegion allocates %.1f times per run, want 0", allocs)
	}
}

// TestShrinkRegionOneAlloc pins what a shrink costs and what the cache
// then retains: the sort runs in a recycled buffer, and the kept POIs are
// one array of exactly their size, however oversized the region was.
func TestShrinkRegionOneAlloc(t *testing.T) {
	ids := make([]int64, 300)
	for i := range ids {
		ids[i] = int64(i)
	}
	r := mkRegion(geom.NewRect(0, 0, 30, 30), ids...)
	var out Region
	shrink := func() { out = shrinkRegion(r, 50) }
	shrink() // warm the buffer pool
	if allocs := testing.AllocsPerRun(100, shrink); allocs > 1 {
		t.Fatalf("shrinkRegion allocates %.1f times per run, want 1", allocs)
	}
	if len(out.POIs) == 0 || len(out.POIs) > 50 || cap(out.POIs) != len(out.POIs) {
		t.Fatalf("kept %d POIs in an array of %d", len(out.POIs), cap(out.POIs))
	}
}

// TestInsertOneAlloc pins what a kept region costs: one array of exactly
// its POIs, whether the region fits or is shrunk to the capacity first
// (shrinkRegion sorts in a recycled buffer), once the cache's region array
// has room. An empty region costs nothing.
func TestInsertOneAlloc(t *testing.T) {
	ids := make([]int64, 300)
	for i := range ids {
		ids[i] = int64(i)
	}
	for _, c := range []struct {
		name   string
		n      int
		allocs float64
	}{{"empty", 0, 0}, {"fits", 30, 1}, {"shrunk", 300, 1}} {
		r := mkRegion(geom.NewRect(0, 0, 30, 30), ids[:c.n]...)
		cache := New(50, DirectionDistance)
		insert := func() { cache.Insert(r, geom.Pt(0, 0), geom.Point{}, 0) }
		insert() // each insert evicts the one before: the region array stays warm
		insert()
		if allocs := testing.AllocsPerRun(100, insert); allocs != c.allocs {
			t.Errorf("%s: Insert allocates %.1f times per run, want %v", c.name, allocs, c.allocs)
		}
	}
}

// TestReconcileRepairZeroAllocs pins Cache.Reconcile's repair: with the
// scratch warm and the cache's region array roomy enough for the pieces,
// a repair writes the survivors back into their region's array and
// allocates nothing.
func TestReconcileRepairZeroAllocs(t *testing.T) {
	var regions []Region
	for i := 0; i < 6; i++ {
		x := float64(10 * i)
		r := mkRegion(geom.NewRect(x, 0, x+8, 8), int64(10*i+1), int64(10*i+2), int64(10*i+3), int64(10*i+4))
		r.Epoch = 1
		regions = append(regions, r)
	}
	var items []Invalidation
	for i := range regions {
		x := float64(10 * i)
		items = append(items,
			Invalidation{Epoch: 2, Kind: InvalDelete, ID: int64(10*i + 1)},
			Invalidation{Epoch: 2, Kind: InvalInsert, ID: int64(100 + i), Cell: geom.NewRect(x+3.5, 3.5, x+3.9, 3.9)})
	}
	invals := newInvalSet(2, 1, items)
	c := New(1000, LRU)
	arrays := make([][]broadcast.POI, len(regions))
	for i := range arrays {
		arrays[i] = make([]broadcast.POI, len(regions[i].POIs))
	}
	s := newRepairScratch()
	c.regions = make([]Region, 0, 64)
	repair := func() {
		c.regions = c.regions[:0]
		for i, r := range regions {
			r.POIs = arrays[i]
			copy(r.POIs, regions[i].POIs)
			c.regions = append(c.regions, r)
		}
		s.POIs.Rewind()
		if rec := c.Reconcile(s, &invals, false); rec.Repaired != len(regions) {
			t.Fatalf("fixture: %d of %d regions repaired", rec.Repaired, len(regions))
		}
	}
	repair() // warm the scratch
	if allocs := testing.AllocsPerRun(100, repair); allocs != 0 {
		t.Fatalf("a warm repair allocates %.1f times per run, want 0", allocs)
	}
}

// Re-indexing a report into a warm InvalSet allocates nothing: the
// consistency layer resets one set per IR frame.
func TestInvalSetResetZeroAllocs(t *testing.T) {
	var items []Invalidation
	for i := int64(0); i < 60; i++ {
		items = append(items, Invalidation{Epoch: 1 + i%4, Kind: InvalKind(1 + i%3), ID: (i * 37) % 50})
	}
	var s InvalSet
	s.Reset(4, 1, items)
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(4, 1, items) }); allocs != 0 {
		t.Fatalf("Reset allocated %.1f times per warm call", allocs)
	}
}
