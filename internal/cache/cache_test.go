package cache

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

func mkRegion(rect geom.Rect, ids ...int64) Region {
	r := Region{Rect: rect}
	// Place POIs spread inside the rect.
	for i, id := range ids {
		f := float64(i+1) / float64(len(ids)+1)
		r.POIs = append(r.POIs, broadcast.POI{
			ID:  id,
			Pos: geom.Pt(rect.Min.X+f*rect.Width(), rect.Min.Y+f*rect.Height()),
		})
	}
	return r
}

func TestInsertAndSize(t *testing.T) {
	c := New(10, DirectionDistance)
	if c.Capacity() != 10 || c.Size() != 0 {
		t.Fatalf("fresh cache cap=%d size=%d", c.Capacity(), c.Size())
	}
	c.Insert(mkRegion(geom.NewRect(0, 0, 2, 2), 1, 2, 3), geom.Pt(1, 1), geom.Point{}, 0)
	if c.Size() != 3 || len(c.Regions()) != 1 {
		t.Fatalf("size=%d regions=%d", c.Size(), len(c.Regions()))
	}
}

func TestZeroCapacityCacheStaysEmpty(t *testing.T) {
	c := New(0, DirectionDistance)
	c.Insert(mkRegion(geom.NewRect(0, 0, 1, 1), 1), geom.Pt(0, 0), geom.Point{}, 0)
	if c.Size() != 0 {
		t.Fatal("zero-capacity cache accepted POIs")
	}
	neg := New(-5, LRU)
	if neg.Capacity() != 0 {
		t.Fatalf("negative capacity = %d", neg.Capacity())
	}
}

func TestEmptyRegionIgnored(t *testing.T) {
	c := New(10, DirectionDistance)
	c.Insert(Region{Rect: geom.Rect{}}, geom.Pt(0, 0), geom.Point{}, 0)
	if len(c.Regions()) != 0 {
		t.Fatal("degenerate region stored")
	}
}

func TestEvictionKeepsNewest(t *testing.T) {
	c := New(4, DirectionDistance)
	pos := geom.Pt(0, 0)
	c.Insert(mkRegion(geom.NewRect(10, 10, 12, 12), 1, 2), pos, geom.Point{}, 1)
	c.Insert(mkRegion(geom.NewRect(20, 20, 22, 22), 3, 4), pos, geom.Point{}, 2)
	// Third region overflows: the farthest old region (20,20) is evicted.
	c.Insert(mkRegion(geom.NewRect(1, 1, 3, 3), 5, 6), pos, geom.Point{}, 3)
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	for _, r := range c.Regions() {
		for _, p := range r.POIs {
			if p.ID == 3 || p.ID == 4 {
				t.Fatal("farthest region not evicted")
			}
			if p.ID == 5 || p.ID == 6 {
				return // newest present: good
			}
		}
	}
	t.Fatal("newest region missing")
}

func TestDirectionPenalty(t *testing.T) {
	c := New(4, DirectionDistance)
	pos := geom.Pt(0, 0)
	heading := geom.Pt(1, 0) // moving east
	// Region ahead (east) at distance 15, region behind (west) at 10.
	ahead := mkRegion(geom.NewRect(14, -1, 16, 1), 1, 2)
	behind := mkRegion(geom.NewRect(-11, -1, -9, 1), 3, 4)
	c.Insert(ahead, pos, heading, 1)
	c.Insert(behind, pos, heading, 2)
	// Overflow: the behind region has effective distance 10*3 > 15, so it
	// is evicted even though it is nearer.
	c.Insert(mkRegion(geom.NewRect(1, 1, 2, 2), 5, 6), pos, heading, 3)
	for _, r := range c.Regions() {
		for _, p := range r.POIs {
			if p.ID == 3 || p.ID == 4 {
				t.Fatal("behind region survived despite direction penalty")
			}
		}
	}
}

func TestLRUPolicy(t *testing.T) {
	c := New(4, LRU)
	pos := geom.Pt(0, 0)
	c.Insert(mkRegion(geom.NewRect(1, 1, 2, 2), 1, 2), pos, geom.Point{}, 1)
	c.Insert(mkRegion(geom.NewRect(3, 3, 4, 4), 3, 4), pos, geom.Point{}, 2)
	// Touch the first region so the second becomes LRU.
	c.Touch(0, 5)
	c.Insert(mkRegion(geom.NewRect(5, 5, 6, 6), 5, 6), pos, geom.Point{}, 6)
	for _, r := range c.Regions() {
		for _, p := range r.POIs {
			if p.ID == 3 || p.ID == 4 {
				t.Fatal("LRU region (stamp 2) survived")
			}
		}
	}
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestShrinkOversizedRegionSoundness(t *testing.T) {
	// 10 POIs into capacity 4: the kept region must contain exactly the
	// kept POIs — no dropped POI may lie inside the shrunken rect.
	rect := geom.NewRect(0, 0, 10, 10)
	var pois []broadcast.POI
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		pois = append(pois, broadcast.POI{
			ID:  int64(i),
			Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10),
		})
	}
	c := New(4, DirectionDistance)
	c.Insert(Region{Rect: rect, POIs: pois}, geom.Pt(5, 5), geom.Point{}, 0)
	if c.Size() > 4 {
		t.Fatalf("size = %d exceeds capacity", c.Size())
	}
	if len(c.Regions()) == 0 {
		t.Skip("region shrank to nothing for this layout")
	}
	kept := map[int64]bool{}
	r := c.Regions()[0]
	for _, p := range r.POIs {
		kept[p.ID] = true
		if !r.Rect.Contains(p.Pos) {
			t.Fatalf("kept POI %d outside shrunken rect", p.ID)
		}
	}
	for _, p := range pois {
		if !kept[p.ID] && r.Rect.Contains(p.Pos) {
			t.Fatalf("dropped POI %d still inside shrunken rect %v — VR now lies",
				p.ID, r.Rect)
		}
	}
}

// Property: under random workloads the soundness invariant holds — every
// stored region's POI list is exactly the inserted POIs that fall inside
// its rect, and size never exceeds capacity.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, policy := range []Policy{DirectionDistance, LRU} {
		c := New(12, policy)
		nextID := int64(0)
		for step := 0; step < 500; step++ {
			cx, cy := rng.Float64()*50, rng.Float64()*50
			rect := geom.NewRect(cx, cy, cx+1+rng.Float64()*5, cy+1+rng.Float64()*5)
			n := 1 + rng.Intn(6)
			r := Region{Rect: rect}
			for i := 0; i < n; i++ {
				r.POIs = append(r.POIs, broadcast.POI{
					ID: nextID,
					Pos: geom.Pt(
						rect.Min.X+rng.Float64()*rect.Width(),
						rect.Min.Y+rng.Float64()*rect.Height(),
					),
				})
				nextID++
			}
			pos := geom.Pt(rng.Float64()*50, rng.Float64()*50)
			heading := geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1)
			c.Insert(r, pos, heading, int64(step))

			if c.Size() > c.Capacity() {
				t.Fatalf("policy %v step %d: size %d > capacity", policy, step, c.Size())
			}
			total := 0
			for _, reg := range c.Regions() {
				if len(reg.POIs) == 0 {
					total++ // empty regions charge one unit
				}
				total += len(reg.POIs)
				for _, p := range reg.POIs {
					if !reg.Rect.Contains(p.Pos) {
						t.Fatalf("policy %v step %d: POI outside its region", policy, step)
					}
				}
			}
			if total != c.Size() {
				t.Fatalf("policy %v step %d: size %d != sum %d", policy, step, c.Size(), total)
			}
			if c.POICount() > c.Size() {
				t.Fatalf("policy %v step %d: POICount %d exceeds Size %d",
					policy, step, c.POICount(), c.Size())
			}
		}
		c.Clear()
		if c.Size() != 0 || len(c.Regions()) != 0 {
			t.Fatalf("Clear left state behind")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if DirectionDistance.String() != "direction-distance" ||
		LRU.String() != "lru" || Policy(99).String() != "unknown" {
		t.Error("Policy.String labels wrong")
	}
}

func TestTouchOutOfRange(t *testing.T) {
	c := New(4, LRU)
	c.Touch(5, 1)  // must not panic
	c.Touch(-1, 1) // must not panic
}

func TestEvictUntilFitDegenerateSingleRegion(t *testing.T) {
	// A single stored region can only overflow if shrinking already
	// happened; exercise the degenerate branch directly by inserting a
	// region exactly at capacity, then one oversized region alone.
	c := New(3, DirectionDistance)
	big := mkRegion(geom.NewRect(0, 0, 10, 10), 1, 2, 3, 4, 5, 6, 7)
	c.Insert(big, geom.Pt(5, 5), geom.Point{}, 0)
	if c.Size() > 3 {
		t.Fatalf("size %d exceeds capacity after oversized insert", c.Size())
	}
}

func TestEffectiveDistanceZeroVector(t *testing.T) {
	// Target exactly at the host: zero distance regardless of heading.
	if got := effectiveDistance(geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(1, 1)); got != 0 {
		t.Errorf("coincident target distance = %v", got)
	}
	// No heading: plain distance.
	if got := effectiveDistance(geom.Pt(0, 0), geom.Point{}, geom.Pt(3, 4)); got != 5 {
		t.Errorf("no-heading distance = %v", got)
	}
	// Ahead: plain distance; behind: penalized.
	ahead := effectiveDistance(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0))
	behind := effectiveDistance(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(-5, 0))
	if ahead != 5 || behind != 15 {
		t.Errorf("ahead=%v behind=%v", ahead, behind)
	}
}

func TestShrinkRegionTieAtCut(t *testing.T) {
	// Two POIs equidistant from the center with capacity for one: the
	// shrink must not keep a rect containing the dropped twin.
	rect := geom.NewRect(0, 0, 10, 10)
	r := Region{Rect: rect, POIs: []broadcast.POI{
		{ID: 1, Pos: geom.Pt(3, 5)}, // distance 2 from center (5,5)
		{ID: 2, Pos: geom.Pt(7, 5)}, // distance 2 as well
		{ID: 3, Pos: geom.Pt(5, 6)}, // distance 1
	}}
	out := shrinkRegion(r, 2)
	for _, p := range out.POIs {
		if !out.Rect.Contains(p.Pos) {
			t.Fatal("kept POI outside shrunken rect")
		}
	}
	kept := map[int64]bool{}
	for _, p := range out.POIs {
		kept[p.ID] = true
	}
	for _, p := range r.POIs {
		if !kept[p.ID] && out.Rect.Contains(p.Pos) {
			t.Fatalf("dropped POI %d inside shrunken rect %v", p.ID, out.Rect)
		}
	}
}

func TestShrinkRegionZeroBudget(t *testing.T) {
	r := mkRegion(geom.NewRect(0, 0, 2, 2), 1, 2)
	if out := shrinkRegion(r, 0); !out.Rect.Empty() && len(out.POIs) != 0 {
		t.Fatalf("zero budget kept %v", out)
	}
}

// refShrinkRegion is the body shrinkRegion replaced: a fresh copy sorted
// by sort.Slice and an append-grown result.
func refShrinkRegion(r Region, maxPOIs int) Region {
	if maxPOIs <= 0 {
		return Region{}
	}
	center := r.Rect.Center()
	pois := append([]broadcast.POI(nil), r.POIs...)
	sort.Slice(pois, func(i, j int) bool {
		return pois[i].Pos.DistSq(center) < pois[j].Pos.DistSq(center)
	})
	kept := pois[:maxPOIs]
	radius := kept[len(kept)-1].Pos.Dist(center)
	if len(pois) > maxPOIs {
		dropped := pois[maxPOIs].Pos.Dist(center)
		if dropped <= radius {
			radius = math.Nextafter(dropped, 0)
		}
	}
	half := radius / math.Sqrt2
	square := geom.RectAround(center, half)
	rect, ok := r.Rect.Intersect(square)
	if !ok {
		return Region{}
	}
	var inside []broadcast.POI
	for _, p := range kept {
		if rect.Contains(p.Pos) {
			inside = append(inside, p)
		}
	}
	return Region{Rect: rect, POIs: inside, Stamp: r.Stamp, Epoch: r.Epoch, Born: r.Born}
}

// shrinkRegion against the body it replaced, on half-integer positions
// where equal distances from the centre are common: same rectangle, same
// POIs in the same order (slices.SortFunc is sort.Slice's pdqsort).
func TestShrinkRegionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 2000; trial++ {
		r := Region{Rect: geom.NewRect(0, 0, float64(2+rng.Intn(14)), float64(2+rng.Intn(14))),
			Stamp: 7, Epoch: 3, Born: 5}
		for i, n := 0, 2+rng.Intn(60); i < n; i++ {
			r.POIs = append(r.POIs, broadcast.POI{ID: int64(i),
				Pos: geom.Pt(float64(rng.Intn(33))/2, float64(rng.Intn(33))/2)})
		}
		budget := 1 + rng.Intn(len(r.POIs)-1)
		got, want := shrinkRegion(r, budget), refShrinkRegion(r, budget)
		if got.Rect != want.Rect || !slices.Equal(got.POIs, want.POIs) ||
			got.Stamp != want.Stamp || got.Epoch != want.Epoch || got.Born != want.Born {
			t.Fatalf("trial %d (budget %d of %d):\n got %+v\nwant %+v", trial, budget, len(r.POIs), got, want)
		}
	}
}
