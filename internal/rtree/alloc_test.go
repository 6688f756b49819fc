//go:build !race

package rtree

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// With warm scratch and a dst of enough capacity, AppendKNN allocates
// nothing: the frontier and the sorted run reuse the scratch's arrays.
func TestAppendKNNAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Bulk(randomItems(rng, 5000, 100), 16)
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
	}
	var s KNNScratch
	dst := make([]Item, 0, 32)
	search := func(q geom.Point) {
		if got := tr.AppendKNN(dst[:0], q, 32, &s); len(got) != 32 {
			t.Fatalf("%d results, want 32", len(got))
		}
	}
	for _, q := range qs {
		search(q)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(qs), func() { search(qs[i%len(qs)]); i++ }); allocs != 0 {
		t.Fatalf("AppendKNN allocated %v times per call with warm scratch", allocs)
	}
}
