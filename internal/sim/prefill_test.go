package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
)

// refPrefill is the body prefill replaced: the same draws in the same
// order, every region inserted with a POI slice of its own straight from
// the ground truth. It reports whether some region had to be shrunk and
// how many regions it inserted.
func refPrefill(w *World) (shrunk bool, inserted int) {
	radius := w.Params.PrefillRadiusMiles
	if radius <= 0 {
		radius = math.Min(7.5, w.Params.AreaMiles/2)
	}
	for i := range w.mob {
		m := &w.mob[i]
		w.rng.Int63()
		n := mobility.Poisson(w.rng, w.Params.PrefillQueriesPerHost)
		for j := 0; j < n; j++ {
			angle := w.rng.Float64() * 2 * math.Pi
			d := w.rng.Float64() * radius
			center := w.area.Clip(m.Pos.Add(
				geom.Pt(math.Cos(angle)*d, math.Sin(angle)*d)))
			var region geom.Rect
			if w.Params.Kind == WindowQuery {
				area := float64(w.Params.CacheSize) / math.Max(w.data.lambda, 1e-9)
				area *= 0.4 + 0.6*w.rng.Float64()
				half := math.Sqrt(area) / 2
				win, ok := geom.RectAround(center, half).Intersect(w.area)
				if !ok {
					continue
				}
				region = win
			} else {
				nn := w.data.truth.KNN(center, w.drawK(w.rng))
				if len(nn) == 0 {
					continue
				}
				rk := nn[len(nn)-1].Pos.Dist(center)
				region = geom.RectAround(center, math.Max(rk, 1e-9))
			}
			pois := w.poisInRect(nil, region)
			shrunk = shrunk || len(pois) > w.Params.CacheSize
			inserted++
			w.caches[i].Insert(cache.Region{Rect: region, POIs: pois}, m.Pos, m.Heading(), 0)
		}
	}
	return shrunk, inserted
}

// sameCaches reports the first host whose cache differs between got and
// want: bounds, size, and region by region the rectangle, the stamps and
// the POIs in order.
func sameCaches(got, want []cache.Cache) error {
	for i := range want {
		g, h := &got[i], &want[i]
		gb, gok := g.Bounds()
		hb, hok := h.Bounds()
		if gb != hb || gok != hok || g.Size() != h.Size() || len(g.Regions()) != len(h.Regions()) {
			return fmt.Errorf("host %d: bounds %v size %d regions %d, want %v size %d regions %d",
				i, gb, g.Size(), len(g.Regions()), hb, h.Size(), len(h.Regions()))
		}
		for j, r := range g.Regions() {
			x := h.Regions()[j]
			if r.Rect != x.Rect || r.Stamp != x.Stamp || r.Epoch != x.Epoch || r.Born != x.Born ||
				!slices.Equal(r.POIs, x.POIs) {
				return fmt.Errorf("host %d region %d:\n got %+v\nwant %+v", i, j, r, x)
			}
		}
	}
	return nil
}

// checkOwnedLists reports a cached non-empty POI list that is not an
// exact-size array of its own: one with spare capacity, or one whose
// memory overlaps another list's. A survivor that still aliased its
// block's staging buffer would overlap the list staged after it.
func checkOwnedLists(caches []cache.Cache) error {
	type span struct {
		lo, hi uintptr
		host   int
	}
	var spans []span
	size := unsafe.Sizeof(broadcast.POI{})
	for i := range caches {
		for _, r := range caches[i].Regions() {
			if len(r.POIs) == 0 {
				continue
			}
			if cap(r.POIs) != len(r.POIs) {
				return fmt.Errorf("host %d keeps %d POIs in an array of %d", i, len(r.POIs), cap(r.POIs))
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.POIs)))
			spans = append(spans, span{lo, lo + uintptr(len(r.POIs))*size, i})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for j := 1; j < len(spans); j++ {
		if spans[j].lo < spans[j-1].hi {
			return fmt.Errorf("hosts %d and %d keep overlapping POI lists", spans[j-1].host, spans[j].host)
		}
	}
	return nil
}

// prefillWorlds builds the worlds these tests compare: LA at side miles,
// CacheSize 8 so that regions are shrunk and evicted. w is built by
// NewWorld with the given prefill; ref is built without and filled region
// by region at 10, and must have shrunk a region and evicted one.
func prefillWorlds(t *testing.T, side float64, kind QueryKind, policy cache.Policy, seed int64, prefill float64) (w, ref *World) {
	t.Helper()
	p := LACity().Scaled(side).WithDuration(0.05)
	p.Kind = kind
	p.CachePolicy = policy
	p.CacheSize = 8
	p.Seed = seed
	p.PrefillQueriesPerHost = prefill
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	p.PrefillQueriesPerHost = 0
	if ref, err = NewWorld(p); err != nil {
		t.Fatal(err)
	}
	ref.Params.PrefillQueriesPerHost = 10
	shrunk, inserted := refPrefill(ref)
	kept := 0
	for i := range ref.caches {
		kept += len(ref.caches[i].Regions())
	}
	if !shrunk || kept >= inserted {
		t.Fatalf("reference shrank a region: %v, kept %d of %d regions: want both shrink and eviction",
			shrunk, kept, inserted)
	}
	return w, ref
}

// Prefill stages each host's regions in its block's reused buffer and
// copies out only the survivors. Every cache must equal the one the
// reference fills region by region, for both query kinds and both
// policies, at a capacity small enough that regions are shrunk and
// evicted; and every list it keeps must be an array of its own.
func TestPrefillMatchesReference(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		for _, policy := range []cache.Policy{cache.DirectionDistance, cache.LRU} {
			for _, seed := range []int64{3, 29, 71} {
				t.Run(fmt.Sprintf("%v/%v/seed%d", kind, policy, seed), func(t *testing.T) {
					w, ref := prefillWorlds(t, 2, kind, policy, seed, 10)
					if err := sameCaches(w.caches, ref.caches); err != nil {
						t.Fatal(err)
					}
					if err := checkOwnedLists(w.caches); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// The warm start draws and builds in rounds of 16 blocks of hosts per
// worker. On a world of ~2,100 hosts — five rounds at 1 worker, three at
// 2, two at 3, one at 8 — every cache must equal the region-by-region
// reference's, every kept list must be an array of its own, and the world
// stream must continue where the reference's does.
func TestPrefillWorkersIdentity(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		for _, policy := range []cache.Policy{cache.DirectionDistance, cache.LRU} {
			t.Run(fmt.Sprintf("%v/%v", kind, policy), func(t *testing.T) {
				for _, workers := range []int{1, 2, 3, 8} {
					w, ref := prefillWorlds(t, 3, kind, policy, 17, 0)
					w.Params.PrefillQueriesPerHost = 10
					w.prefill(workers)
					if err := sameCaches(w.caches, ref.caches); err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					if err := checkOwnedLists(w.caches); err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					for j := range 8 {
						if got, want := w.rng.Int63(), ref.rng.Int63(); got != want {
							t.Fatalf("%d workers: world draw %d after prefill is %d, want %d", workers, j, got, want)
						}
					}
				}
			})
		}
	}
}
