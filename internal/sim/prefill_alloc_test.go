//go:build !race

package sim

import "testing"

// The warm start's ground-truth lookups run in World scratch and its
// regions are staged: building a world with 10 prefilled regions per host
// costs a few objects per region that survives eviction (its POI list and
// the cache's bookkeeping), not a search's worth of queue entries nor a
// POI list per region attempted. Dense window regions mostly evict one
// another, so their bound is the tighter one.
func TestPrefillAllocsPerRegion(t *testing.T) {
	for _, tc := range []struct {
		kind QueryKind
		max  float64 // objects per attempted region
	}{
		{KNNQuery, 3},
		{WindowQuery, 0.9},
	} {
		p := LACity().Scaled(2).WithDuration(0.01)
		p.Kind = tc.kind
		p.PrefillQueriesPerHost = 10
		p.Seed = 1
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := NewWorld(p); err != nil {
				t.Fatal(err)
			}
		})
		regions := float64(p.MHNumber) * p.PrefillQueriesPerHost
		perRegion := allocs / regions
		t.Logf("%v, %d hosts: %.0f objects, %.2f per attempted region", tc.kind, p.MHNumber, allocs, perRegion)
		if perRegion > tc.max {
			t.Fatalf("%v: NewWorld allocated %.2f objects per attempted region, want at most %.2f",
				tc.kind, perRegion, tc.max)
		}
	}
}
