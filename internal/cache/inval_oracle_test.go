package cache

import (
	"math/rand"
	"testing"
)

// refRemovedAt is the report's removed-ID index before it became a
// sorted slice: the map NewInvalSet built, kept verbatim with its removes.
type refRemovedAt map[int64]int64

func newRefRemovedAt(items []Invalidation) refRemovedAt {
	removedAt := make(map[int64]int64)
	for _, inv := range items {
		if inv.Kind != InvalDelete && inv.Kind != InvalMove {
			continue
		}
		if at, ok := removedAt[inv.ID]; !ok || inv.Epoch > at {
			removedAt[inv.ID] = inv.Epoch
		}
	}
	return removedAt
}

func (m refRemovedAt) removes(id, epoch int64) bool {
	at, ok := m[id]
	return ok && at > epoch
}

// The indexed report answers removes as the map did, over random reports
// re-indexed in one reused InvalSet: ids that several items remove at
// different epochs, ids only inserted, ids no item names, and the ids
// beside every removed id, so the binary search misses next to its hits.
// A probe is asked at every epoch from before the report to past it.
func TestInvalSetRemovesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var s InvalSet
	hits, misses := 0, 0
	for trial := 0; trial < 400; trial++ {
		epoch := int64(1 + rng.Intn(8))
		items := make([]Invalidation, rng.Intn(40))
		span := int64(8 + rng.Intn(200))
		for i := range items {
			items[i] = Invalidation{Epoch: 1 + rng.Int63n(epoch), Kind: InvalKind(1 + rng.Intn(3)), ID: rng.Int63n(span)}
			if rng.Intn(10) == 0 {
				items[i].ID = rng.Int63() // a fresh id anywhere
			}
		}
		s.Reset(epoch, 1, items)
		ref := newRefRemovedAt(items)
		probes := []int64{-1, span, 1 << 40}
		for id := int64(0); id < span; id++ {
			probes = append(probes, id)
		}
		for id := range ref {
			probes = append(probes, id-1, id, id+1)
		}
		for _, id := range probes {
			if _, ok := ref[id]; ok {
				hits++
			} else {
				misses++
			}
			for e := int64(-1); e <= epoch+1; e++ {
				if got, want := s.removes(id, e), ref.removes(id, e); got != want {
					t.Fatalf("trial %d: removes(%d, %d) = %v, reference %v", trial, id, e, got, want)
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d removed and %d kept probes: the walk missed a path", hits, misses)
	}
	var zero InvalSet
	if zero.removes(0, -1) {
		t.Fatal("the zero report removes a POI")
	}
}
