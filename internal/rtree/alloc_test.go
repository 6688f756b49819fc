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

// Bulk allocates the tree, its copy of the items, each node with its own
// run, and the growth of each level's node slice — nothing per sort. The
// consistency layer rebuilds the ground truth every epoch, so a sort that
// allocated (sort.Slice's reflective swapper) would be paid per strip.
func TestBulkAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randomItems(rng, 5000, 100)
	tr := Bulk(items, 16)
	want := 2 // the Tree and the items' copy
	for level := []*node{tr.root}; len(level) > 0; {
		var next []*node
		for _, n := range level {
			next = append(next, n.children...)
		}
		want += 2*len(level) + appendGrowths(len(level))
		level = next
	}
	if got := testing.AllocsPerRun(10, func() { Bulk(items, 16) }); got != float64(want) {
		t.Fatalf("Bulk allocated %v times, want %d", got, want)
	}
}

// appendGrowths is how many times a slice of node pointers reallocates
// when appended to one element at a time from nil up to n elements.
func appendGrowths(n int) int {
	var s []*node
	growths := 0
	for range n {
		if len(s) == cap(s) {
			growths++
		}
		s = append(s, nil)
	}
	return growths
}
