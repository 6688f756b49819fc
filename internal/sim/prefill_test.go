package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

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

// Prefill stages each host's regions in one reused buffer and copies out
// only the survivors. Every cache must equal the one the reference fills
// region by region, for both query kinds and both policies, at a capacity
// small enough that regions are shrunk and evicted; and writing over the
// staging buffer afterwards must change no cache, since a survivor that
// still aliased it would be read back as whatever the next host staged.
func TestPrefillMatchesReference(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		for _, policy := range []cache.Policy{cache.DirectionDistance, cache.LRU} {
			for _, seed := range []int64{3, 29, 71} {
				t.Run(fmt.Sprintf("%v/%v/seed%d", kind, policy, seed), func(t *testing.T) {
					p := LACity().Scaled(2).WithDuration(0.05)
					p.Kind = kind
					p.CachePolicy = policy
					p.CacheSize = 8
					p.Seed = seed
					p.PrefillQueriesPerHost = 10
					w, err := NewWorld(p)
					if err != nil {
						t.Fatal(err)
					}
					p.PrefillQueriesPerHost = 0
					ref, err := NewWorld(p)
					if err != nil {
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
					if err := sameCaches(w.caches, ref.caches); err != nil {
						t.Fatal(err)
					}
					if cap(w.stage) == 0 {
						t.Fatal("prefill staged nothing")
					}
					stage := w.stage[:cap(w.stage)]
					for i := range stage {
						stage[i] = broadcast.POI{ID: -1, Pos: geom.Pt(-1, -1)}
					}
					if err := sameCaches(w.caches, ref.caches); err != nil {
						t.Fatalf("after overwriting the staging buffer: %v", err)
					}
				})
			}
		}
	}
}
