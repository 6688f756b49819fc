package cache

import (
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// sameArray reports whether a and b start at the same element.
func sameArray(a, b []broadcast.POI) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// within reports whether every element of sub lies in arr's array.
func within(sub, arr []broadcast.POI) bool {
	if len(sub) == 0 {
		return true
	}
	arr = arr[:cap(arr)]
	for i := range arr {
		if &arr[i] == &sub[0] {
			return i+len(sub) <= len(arr)
		}
	}
	return false
}

// Insert keeps an exact-size copy of what it keeps (DESIGN.md §9.1 rule
// 3), whether or not the region is over capacity, and never the caller's
// slice: the caller may overwrite it at once.
func TestInsertKeepsExactCopy(t *testing.T) {
	ids := make([]int64, 80)
	for i := range ids {
		ids[i] = int64(i)
	}
	for _, n := range []int{0, 1, 7, 11, 40, 80} {
		r := mkRegion(geom.NewRect(0, 0, 8, 8), ids[:n]...)
		src := slices.Grow(r.POIs, 5) // a caller's buffer, longer than its answer
		r.POIs = src
		want := slices.Clone(src)
		c := New(40, DirectionDistance)
		c.Insert(r, geom.Pt(4, 4), geom.Point{}, 0)
		if len(c.Regions()) != 1 {
			t.Fatalf("%d POIs: %d regions kept", n, len(c.Regions()))
		}
		got := c.Regions()[0].POIs
		switch {
		case n == 0 && got != nil:
			t.Fatalf("an empty region keeps %v, want nil", got)
		case cap(got) != len(got):
			t.Fatalf("%d POIs: kept %d in an array of %d", n, len(got), cap(got))
		case sameArray(got, src):
			t.Fatalf("%d POIs: the region aliases the inserted slice", n)
		case n <= 40 && !slices.Equal(got, want):
			t.Fatalf("%d POIs: kept %v, want %v", n, got, want)
		case n > 40 && len(got) > 40:
			t.Fatalf("%d POIs: kept %d past a capacity of 40", n, len(got))
		}
		kept := slices.Clone(got)
		for i := range src {
			src[i] = broadcast.POI{ID: -1}
		}
		if !slices.Equal(c.Regions()[0].POIs, kept) {
			t.Fatalf("%d POIs: overwriting the inserted slice changed the cache", n)
		}
	}
}

// Stage keeps the caller's slice, and Own then gives each region an
// exact-size copy of its own (nil when empty); a staged region over
// capacity is shrunk into its own array at once.
func TestStageAliasesOwnCopies(t *testing.T) {
	buf := make([]broadcast.POI, 0, 100) // never regrown, so a rewrite reaches every staged slice
	stage := func(c *Cache, i, n int) []broadcast.POI {
		r := mkRegion(geom.NewRect(float64(10*i), 0, float64(10*i+4), 4), make([]int64, n)...)
		start := len(buf)
		buf = append(buf, r.POIs...)
		r.POIs = buf[start:len(buf):len(buf)]
		c.Stage(r, geom.Pt(0, 0), geom.Point{}, int64(i))
		if got := c.Regions()[len(c.Regions())-1].POIs; len(r.POIs) <= c.capacity && !sameArray(got, r.POIs) && n > 0 {
			t.Fatalf("staged region %d does not alias its slice", i)
		}
		return r.POIs
	}
	c := New(1000, LRU)
	for i, n := range []int{3, 0, 5, 40} {
		stage(c, i, n)
	}
	small := New(10, LRU)
	stage(small, 4, 40)
	if got := small.Regions()[0].POIs; len(got) == 0 || within(got, buf) || cap(got) != len(got) || len(got) > 10 {
		t.Fatalf("a shrunk staged region keeps %d POIs in an array of %d, in the buffer %v",
			len(got), cap(got), within(got, buf))
	}
	want := cloneRegions(c.Regions())
	c.Own()
	for i := range buf {
		buf[i] = broadcast.POI{ID: -1}
	}
	if err := sameRegions(c.Regions(), want); err != nil {
		t.Fatalf("after Own and a rewrite of the staging buffer: %v", err)
	}
	for i, r := range c.Regions() {
		if len(r.POIs) == 0 && r.POIs != nil || len(r.POIs) > 0 && (within(r.POIs, buf) || cap(r.POIs) != len(r.POIs)) {
			t.Fatalf("owned region %d: %d POIs in an array of %d, in the buffer %v",
				i, len(r.POIs), cap(r.POIs), within(r.POIs, buf))
		}
	}
}

// A repair writes a region's surviving pieces back into the region's own
// array, each piece capped at its length, so that a later repair of one
// piece leaves the others' POIs as they were.
func TestReconcileReusesRegionArray(t *testing.T) {
	c := New(1000, LRU)
	r := mkRegion(geom.NewRect(0, 0, 8, 8), 1, 2, 3, 4, 5, 6, 7, 8, 9)
	r.Epoch = 1
	c.Insert(r, geom.Pt(0, 0), geom.Point{}, 0)
	array := c.Regions()[0].POIs
	s := newRepairScratch()
	// POI i sits at (0.8i, 0.8i): the cell cuts the region between POIs 4
	// and 5, leaving pieces on both sides of the diagonal.
	invals := newInvalSet(2, 1, []Invalidation{
		{Epoch: 2, Kind: InvalDelete, ID: 2},
		{Epoch: 2, Kind: InvalInsert, ID: 90, Cell: geom.NewRect(3.5, 3.5, 3.9, 3.9)},
	})
	if rec := c.Reconcile(s, &invals, false); rec.Repaired != 1 || rec.Pieces < 2 {
		t.Fatalf("fixture not cut: %+v", rec)
	}
	before := cloneRegions(c.Regions())
	for i, p := range c.Regions() {
		if !within(p.POIs, array) || cap(p.POIs) != len(p.POIs) {
			t.Fatalf("piece %d: %d POIs in an array of %d, in the region's array %v",
				i, len(p.POIs), cap(p.POIs), within(p.POIs, array))
		}
	}

	// Repair each piece that holds POIs in turn: strip its first POI, and
	// the other pieces still hold theirs.
	epoch := int64(2)
	for i := range before {
		if len(before[i].POIs) == 0 {
			continue
		}
		epoch++
		s.POIs.Rewind()
		invals = newInvalSet(epoch, epoch-1, []Invalidation{
			{Epoch: epoch, Kind: InvalDelete, ID: before[i].POIs[0].ID}})
		c.Reconcile(s, &invals, false)
		before[i].POIs = before[i].POIs[1:]
		for j := range before {
			if got := c.Regions()[j].POIs; !slices.Equal(got, before[j].POIs) {
				t.Fatalf("after repairing piece %d, piece %d holds %v, want %v", i, j, got, before[j].POIs)
			}
		}
	}
}
