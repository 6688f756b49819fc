//go:build !race

package sim

import "testing"

// The warm start's ground-truth kNN runs in World scratch: building a kNN
// world with 10 prefilled regions per host costs a few objects per
// region (its POI list and the cache's bookkeeping), not a search's
// worth of queue entries.
func TestPrefillAllocsPerRegion(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.01)
	p.Kind = KNNQuery
	p.PrefillQueriesPerHost = 10
	p.Seed = 1
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewWorld(p); err != nil {
			t.Fatal(err)
		}
	})
	regions := float64(p.MHNumber) * p.PrefillQueriesPerHost
	perRegion := allocs / regions
	t.Logf("%d hosts: %.0f objects, %.2f per prefilled region", p.MHNumber, allocs, perRegion)
	if perRegion > 3 {
		t.Fatalf("NewWorld allocated %.1f objects per prefilled region, want at most 3", perRegion)
	}
}
