package rtree

import (
	"math/rand"
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
	tr := New(8)
	if tr.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree must have no bounds")
	}
	if got := tr.KNN(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
	if got := tr.Window(geom.NewRect(0, 0, 1, 1)); got != nil {
		t.Errorf("empty Window = %v", got)
	}
	if got := tr.All(); got != nil {
		t.Errorf("empty All = %v", got)
	}
	if tr.Delete(1, geom.Pt(0, 0)) {
		t.Error("delete from empty tree must fail")
	}
}

func TestInsertSmall(t *testing.T) {
	tr := New(4)
	pts := []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3),
		geom.Pt(10, 10), geom.Pt(11, 11), geom.Pt(0, 5),
	}
	for i, p := range pts {
		tr.Insert(Item{ID: int64(i), Pos: p})
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d", tr.Len())
	}
	b, ok := tr.Bounds()
	if !ok || b != geom.NewRect(0, 1, 11, 11) {
		t.Fatalf("Bounds = %v", b)
	}
	got := tr.KNN(geom.Pt(0, 0), 2)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("KNN = %v", got)
	}
}

func TestInsertVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 500, 100)
	tr := New(8)
	for _, it := range items {
		tr.Insert(it)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(10)
		got := tr.KNN(q, k)
		want := bruteKNN(items, q, k)
		for i := range got {
			if got[i].Pos.Dist(q) != want[i].Pos.Dist(q) {
				t.Fatalf("trial %d: KNN distance mismatch at %d: %v vs %v",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestBulkVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 1000, 50)
	tr := Bulk(items, 16)
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
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

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randomItems(rng, 300, 30)
	tr := New(6)
	for _, it := range items {
		tr.Insert(it)
	}
	// Delete half, in random order.
	perm := rng.Perm(len(items))
	deleted := map[int64]bool{}
	for _, idx := range perm[:150] {
		it := items[idx]
		if !tr.Delete(it.ID, it.Pos) {
			t.Fatalf("Delete(%d) failed", it.ID)
		}
		deleted[it.ID] = true
	}
	if tr.Len() != 150 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	// Deleted items are gone; survivors are present.
	all := tr.All()
	if len(all) != 150 {
		t.Fatalf("All after deletes = %d", len(all))
	}
	for _, it := range all {
		if deleted[it.ID] {
			t.Fatalf("deleted item %d still present", it.ID)
		}
	}
	// Queries still correct.
	var survivors []Item
	for _, it := range items {
		if !deleted[it.ID] {
			survivors = append(survivors, it)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64()*30, rng.Float64()*30)
		got := tr.KNN(q, 5)
		want := bruteKNN(survivors, q, 5)
		for i := range got {
			if got[i].Pos.Dist(q) != want[i].Pos.Dist(q) {
				t.Fatalf("trial %d: post-delete KNN mismatch", trial)
			}
		}
	}
	// Delete non-existent.
	if tr.Delete(99999, geom.Pt(0, 0)) {
		t.Error("deleting unknown id must fail")
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, 64, 10)
	tr := New(4)
	for _, it := range items {
		tr.Insert(it)
	}
	for _, it := range items {
		if !tr.Delete(it.ID, it.Pos) {
			t.Fatalf("Delete(%d) failed", it.ID)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	// Tree is reusable.
	tr.Insert(Item{ID: 1, Pos: geom.Pt(1, 1)})
	if got := tr.KNN(geom.Pt(0, 0), 1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("reuse KNN = %v", got)
	}
}

func TestDuplicatePositions(t *testing.T) {
	tr := New(4)
	for i := 0; i < 20; i++ {
		tr.Insert(Item{ID: int64(i), Pos: geom.Pt(1, 1)})
	}
	got := tr.KNN(geom.Pt(0, 0), 20)
	if len(got) != 20 {
		t.Fatalf("KNN with duplicates = %d", len(got))
	}
	w := tr.Window(geom.NewRect(0, 0, 2, 2))
	if len(w) != 20 {
		t.Fatalf("Window with duplicates = %d", len(w))
	}
}

func TestBulkSmallAndDegenerate(t *testing.T) {
	if tr := Bulk(nil, 8); tr.Len() != 0 {
		t.Error("Bulk(nil) must be empty")
	}
	one := Bulk([]Item{{ID: 1, Pos: geom.Pt(2, 3)}}, 8)
	if got := one.KNN(geom.Pt(0, 0), 1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("single-item bulk KNN = %v", got)
	}
}

func TestHeightGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := New(4)
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	for _, it := range randomItems(rng, 200, 50) {
		tr.Insert(it)
	}
	if tr.Height() < 3 {
		t.Errorf("height after 200 inserts at fan-out 4 = %d, expected >= 3", tr.Height())
	}
}

func TestDefaultMaxEntries(t *testing.T) {
	tr := New(0)
	if tr.maxEntries != DefaultMaxEntries {
		t.Errorf("default fan-out = %d", tr.maxEntries)
	}
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 100, 10)
	for _, it := range items {
		tr.Insert(it)
	}
	got := tr.KNN(geom.Pt(5, 5), 3)
	want := bruteKNN(items, geom.Pt(5, 5), 3)
	for i := range got {
		if got[i].Pos.Dist(geom.Pt(5, 5)) != want[i].Pos.Dist(geom.Pt(5, 5)) {
			t.Fatal("default fan-out KNN mismatch")
		}
	}
}

// Property: mixed insert/delete workload stays consistent with a model map.
func TestMixedWorkloadModelCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := New(6)
	model := map[int64]geom.Point{}
	nextID := int64(0)
	for step := 0; step < 2000; step++ {
		if len(model) == 0 || rng.Float64() < 0.6 {
			p := geom.Pt(rng.Float64()*20, rng.Float64()*20)
			tr.Insert(Item{ID: nextID, Pos: p})
			model[nextID] = p
			nextID++
		} else {
			// Delete a random existing item.
			var id int64
			for k := range model {
				id = k
				break
			}
			if !tr.Delete(id, model[id]) {
				t.Fatalf("step %d: delete %d failed", step, id)
			}
			delete(model, id)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("size drift: tree=%d model=%d", tr.Len(), len(model))
	}
	var items []Item
	for id, p := range model {
		items = append(items, Item{ID: id, Pos: p})
	}
	q := geom.Pt(10, 10)
	got := tr.KNN(q, 10)
	want := bruteKNN(items, q, 10)
	for i := range got {
		if got[i].Pos.Dist(q) != want[i].Pos.Dist(q) {
			t.Fatal("final KNN mismatch after mixed workload")
		}
	}
}
