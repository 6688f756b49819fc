package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/geom"
)

// bruteDists is the reference answer of a kNN query rank by rank: the k
// smallest Point.Dist values over items, ascending.
func bruteDists(items []Item, q geom.Point, k int) []float64 {
	d := make([]float64, len(items))
	for i, it := range items {
		d[i] = it.Pos.Dist(q)
	}
	sort.Float64s(d)
	return d[:max(0, min(k, len(d)))]
}

// checkAppendKNN runs AppendKNN on s behind a two-item dst prefix and
// compares it with the brute-force answer: the prefix untouched, the
// distances equal rank by rank to the bit, and the IDs distinct and
// naming items of the tree at their own positions. Ties may come in any
// order, so IDs are never compared by rank.
func checkAppendKNN(t *testing.T, items []Item, fanout int, q geom.Point, k int, s *KNNScratch) {
	t.Helper()
	prefix := []Item{{ID: -1, Pos: geom.Pt(-1, -1)}, {ID: -2, Pos: geom.Pt(-2, -2)}}
	got := Bulk(items, fanout).AppendKNN(append([]Item(nil), prefix...), q, k, s)
	if got[0] != prefix[0] || got[1] != prefix[1] {
		t.Fatalf("fanout %d q %v k %d: dst prefix overwritten: %v", fanout, q, k, got[:2])
	}
	got = got[len(prefix):]
	want := bruteDists(items, q, k)
	if len(got) != len(want) {
		t.Fatalf("fanout %d q %v k %d: %d results, want %d", fanout, q, k, len(got), len(want))
	}
	pos := make(map[int64]geom.Point, len(items))
	for _, it := range items {
		pos[it.ID] = it.Pos
	}
	seen := make(map[int64]bool, len(got))
	for i, it := range got {
		if d := it.Pos.Dist(q); d != want[i] {
			t.Fatalf("fanout %d q %v k %d: rank %d distance %v, want %v", fanout, q, k, i, d, want[i])
		}
		if p, ok := pos[it.ID]; !ok || p != it.Pos || seen[it.ID] {
			t.Fatalf("fanout %d q %v k %d: rank %d item %v is unknown or repeated", fanout, q, k, i, it)
		}
		seen[it.ID] = true
	}
}

// gridItems places n items on a coarse side×side integer grid, so that
// positions repeat and distance ties are common.
func gridItems(rng *rand.Rand, n, side int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Pos: geom.Pt(float64(rng.Intn(side)), float64(rng.Intn(side)))}
	}
	return items
}

func TestAppendKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s KNNScratch // shared, so every search starts from a dirty scratch
	for fanout := 2; fanout <= 16; fanout++ {
		for _, n := range []int{0, 1, 5, 40, 300} {
			items := gridItems(rng, n, 2+rng.Intn(8))
			if n > 0 && rng.Intn(2) == 0 {
				items = randomItems(rng, n, 10)
			}
			for _, q := range []geom.Point{
				geom.Pt(float64(rng.Intn(10)), float64(rng.Intn(10))), // on the grid
				geom.Pt(rng.Float64()*10, rng.Float64()*10),
				geom.Pt(-7.5, 4), geom.Pt(25, 30), // outside the root MBR
			} {
				for _, k := range []int{0, 1, 1 + rng.Intn(12), n, n + 5} {
					checkAppendKNN(t, items, fanout, q, k, &s)
				}
			}
		}
	}
}

// FuzzAppendKNN checks AppendKNN against the brute-force ranks on small
// trees of grid points. data[0] picks the fan-out (2–16), data[1] k (0–39,
// often above n), data[2:4] the query point (which may lie outside the
// root MBR), and each following byte pair one item on an 8×8 half-mile
// grid, so duplicate positions and distance ties are the rule.
func FuzzAppendKNN(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		fanout, k := 2+int(data[0]%15), int(data[1]%40)
		q := geom.Pt(float64(int8(data[2]))/16, float64(int8(data[3]))/16)
		var items []Item
		for b := data[4:]; len(b) >= 2; b = b[2:] {
			items = append(items, Item{ID: int64(len(items)), Pos: geom.Pt(float64(b[0]%8)/2, float64(b[1]%8)/2)})
		}
		var s KNNScratch
		checkAppendKNN(t, items, fanout, q, k, &s)
		checkAppendKNN(t, items, fanout, geom.Pt(q.Y, q.X), k, &s) // again on the dirty scratch
	})
}
