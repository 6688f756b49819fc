package cache

import (
	"testing"

	"lbsq/internal/geom"
)

// TestEmptyRegionsAreBounded: regions with no POIs ("verified empty
// areas") must still charge capacity so the region list cannot grow
// without bound — the failure mode of tiny window queries over sparse POI
// fields.
func TestEmptyRegionsAreBounded(t *testing.T) {
	c := New(10, DirectionDistance)
	for i := 0; i < 100; i++ {
		x := float64(i)
		c.Insert(Region{Rect: geom.NewRect(x, 0, x+0.5, 0.5)},
			geom.Pt(x, 0), geom.Point{}, int64(i))
	}
	if len(c.Regions()) > 10 {
		t.Fatalf("%d empty regions retained with capacity 10", len(c.Regions()))
	}
	if c.Size() > c.capacity {
		t.Fatalf("size %d exceeds capacity", c.Size())
	}
	for _, r := range c.Regions() {
		if len(r.POIs) != 0 {
			t.Fatalf("empty region holds %d POIs", len(r.POIs))
		}
	}
}

// TestMixedEmptyAndFullRegions: cost accounting blends empty regions (one
// unit) with populated ones (POI count).
func TestMixedEmptyAndFullRegions(t *testing.T) {
	c := New(6, LRU)
	c.Insert(mkRegion(geom.NewRect(0, 0, 1, 1), 1, 2, 3), geom.Pt(0, 0), geom.Point{}, 1)
	c.Insert(Region{Rect: geom.NewRect(2, 2, 3, 3)}, geom.Pt(0, 0), geom.Point{}, 2)
	if c.Size() != 4 { // 3 POIs + 1 empty-region unit
		t.Fatalf("Size = %d", c.Size())
	}
	c.Insert(mkRegion(geom.NewRect(4, 4, 5, 5), 4, 5, 6), geom.Pt(0, 0), geom.Point{}, 3)
	if c.Size() > 6 {
		t.Fatalf("Size %d exceeds capacity after eviction", c.Size())
	}
}
