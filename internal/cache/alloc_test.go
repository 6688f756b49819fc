//go:build !race

// Excluded under the race detector: -race instruments allocations and
// makes AllocsPerRun counts meaningless.

package cache

import (
	"testing"

	"lbsq/internal/geom"
)

// TestReconcileRegionUntouchedZeroAllocs pins the admission fast path: a
// client runs ReconcileRegion once per region a peer serves, and nearly
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
	invals := NewInvalSet(items)
	allocs := testing.AllocsPerRun(100, func() {
		if pieces, touched := ReconcileRegion(r, invals, 3); touched || pieces != nil {
			t.Fatal("untouched region reported as touched")
		}
	})
	if allocs != 0 {
		t.Fatalf("untouched ReconcileRegion allocates %.1f times per run, want 0", allocs)
	}
}
