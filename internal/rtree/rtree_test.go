package rtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lbsq/internal/geom"
)

func randomItems(rng *rand.Rand, n int, span float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:  int64(i),
			Pos: geom.Pt(rng.Float64()*span, rng.Float64()*span),
		}
	}
	return items
}

// bruteKNN is the linear-scan reference.
func bruteKNN(items []Item, q geom.Point, k int) []Item {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool {
		di, dj := s[i].Pos.DistSq(q), s[j].Pos.DistSq(q)
		if di != dj {
			return di < dj
		}
		return s[i].ID < s[j].ID
	})
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func bruteWindow(items []Item, r geom.Rect) []Item {
	var out []Item
	for _, it := range items {
		if r.Contains(it.Pos) {
			out = append(out, it)
		}
	}
	return out
}

func sameIDSet(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int64]int{}
	for _, it := range a {
		m[it.ID]++
	}
	for _, it := range b {
		m[it.ID]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk(nil, 8)
	if got := tr.KNN(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
	if got := tr.Window(geom.NewRect(0, 0, 1, 1)); got != nil {
		t.Errorf("empty Window = %v", got)
	}
}

func TestBulkVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 1000, 50)
	tr := Bulk(items, 16)
	if all := tr.Window(geom.NewRect(0, 0, 50, 50)); !sameIDSet(all, items) {
		t.Fatalf("Window over the span = %d items", len(all))
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*50, rng.Float64()*50)
		k := 1 + rng.Intn(20)
		got := tr.KNN(q, k)
		want := bruteKNN(items, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: KNN len %d want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Pos.Dist(q) != want[i].Pos.Dist(q) {
				t.Fatalf("trial %d: KNN mismatch", trial)
			}
		}
		// Results must be ascending.
		for i := 1; i < len(got); i++ {
			if got[i].Pos.Dist(q) < got[i-1].Pos.Dist(q) {
				t.Fatalf("trial %d: KNN not ascending", trial)
			}
		}
	}
}

func TestWindowVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 800, 50)
	tr := Bulk(items, 8)
	for trial := 0; trial < 60; trial++ {
		a := geom.Pt(rng.Float64()*50, rng.Float64()*50)
		b := geom.Pt(rng.Float64()*50, rng.Float64()*50)
		w := geom.NewRect(a.X, a.Y, b.X, b.Y)
		got := tr.Window(w)
		want := bruteWindow(items, w)
		if !sameIDSet(got, want) {
			t.Fatalf("trial %d: Window mismatch got %d want %d", trial, len(got), len(want))
		}
	}
}

func TestKNNMoreThanSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 7, 10)
	tr := Bulk(items, 4)
	got := tr.KNN(geom.Pt(5, 5), 100)
	if len(got) != 7 {
		t.Fatalf("KNN over-ask = %d items", len(got))
	}
}

func TestDuplicatePositions(t *testing.T) {
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{ID: int64(i), Pos: geom.Pt(1, 1)}
	}
	tr := Bulk(items, 4)
	got := tr.KNN(geom.Pt(0, 0), 20)
	if len(got) != 20 {
		t.Fatalf("KNN with duplicates = %d", len(got))
	}
	w := tr.Window(geom.NewRect(0, 0, 2, 2))
	if !sameIDSet(w, items) {
		t.Fatalf("Window with duplicates = %d items", len(w))
	}
}

func TestBulkSmallAndDegenerate(t *testing.T) {
	if got := Bulk(nil, 8).KNN(geom.Pt(0, 0), 1); got != nil {
		t.Errorf("Bulk(nil) KNN = %v", got)
	}
	one := Bulk([]Item{{ID: 1, Pos: geom.Pt(2, 3)}}, 8)
	if got := one.KNN(geom.Pt(0, 0), 1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("single-item bulk KNN = %v", got)
	}
}

func TestDefaultMaxEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 100, 10)
	tr := Bulk(items, 0)
	if !reflect.DeepEqual(tr, Bulk(items, DefaultMaxEntries)) {
		t.Error("Bulk(items, 0) is not packed at the default fan-out")
	}
	got := tr.KNN(geom.Pt(5, 5), 3)
	want := bruteKNN(items, geom.Pt(5, 5), 3)
	for i := range got {
		if got[i].Pos.Dist(geom.Pt(5, 5)) != want[i].Pos.Dist(geom.Pt(5, 5)) {
			t.Fatal("default fan-out KNN mismatch")
		}
	}
}
