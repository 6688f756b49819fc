package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// referenceSort is the plain comparator sort sortCandidates replaced: the
// (distance², ID) order with both distances recomputed per comparison.
func referenceSort(pois []broadcast.POI, q geom.Point) {
	slices.SortFunc(pois, func(a, b broadcast.POI) int {
		switch {
		case candBefore(a, b, q):
			return -1
		case candBefore(b, a, q):
			return 1
		}
		return 0
	})
}

// TestSortCandidatesMatchesComparator pins the packed-key sort to the
// comparator order on the inputs that stress it: duplicates (the same POI
// from many peers), exact distance ties broken by ID, and distances that
// differ only in the low mantissa bits the packed key drops.
func TestSortCandidatesMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := geom.Pt(16, 16)
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		var pois []broadcast.POI
		id := int64(0)
		add := func(p geom.Point) {
			pois = append(pois, broadcast.POI{ID: id, Pos: p})
			id++
		}
		for i := rng.Intn(300); i > 0; i-- {
			add(geom.Pt(rng.Float64()*32, rng.Float64()*32))
		}
		// Four points at one exact distance, then a ladder one ulp apart.
		r := 1 + rng.Float64()*4
		for _, d := range []geom.Point{{X: r}, {Y: r}, {X: -r}, {Y: -r}} {
			add(q.Add(d))
		}
		x := q.X + r
		for i := 0; i < 40; i++ {
			add(geom.Pt(x, q.Y))
			x = math.Nextafter(x, math.Inf(1))
		}
		for i := rng.Intn(200); i > 0; i-- {
			pois = append(pois, pois[rng.Intn(len(pois))])
		}
		rng.Shuffle(len(pois), func(i, j int) { pois[i], pois[j] = pois[j], pois[i] })

		want := slices.Clone(pois)
		referenceSort(want, q)
		sortCandidates(&s, pois, q)
		if !slices.Equal(pois, want) {
			t.Fatalf("trial %d: packed-key order differs from the comparator order", trial)
		}
	}
}

func BenchmarkSortCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var gathered []broadcast.POI
	for _, p := range benchPeers(rng, benchDB(rng, 500), 64) {
		gathered = append(gathered, p.POIs...)
	}
	buf := make([]broadcast.POI, len(gathered))
	q := geom.Pt(16, 16)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, gathered)
		sortCandidates(&s, buf, q)
	}
}
