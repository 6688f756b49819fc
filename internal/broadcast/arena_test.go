package broadcast

import (
	"testing"

	"lbsq/internal/geom"
)

// Slices the arena handed out stay intact when it grows, and come back
// for reuse only after Rewind.
func TestPOIArenaGrowthKeepsSlices(t *testing.T) {
	var a POIArena
	var held [][]POI
	for i := 0; i < 200; i++ {
		s := a.Alloc(i % 37)
		if len(s) != i%37 || cap(s) != len(s) {
			t.Fatalf("Alloc(%d) has len %d cap %d", i%37, len(s), cap(s))
		}
		for j := range s {
			s[j] = POI{ID: int64(i), Pos: geom.Pt(float64(j), 0)}
		}
		held = append(held, s)
	}
	for i, s := range held {
		for j, p := range s {
			if p.ID != int64(i) || p.Pos.X != float64(j) {
				t.Fatalf("slice %d changed under later allocations: %v", i, s)
			}
		}
	}
	a.Rewind()
	first := a.Alloc(8)
	a.Rewind()
	if again := a.Alloc(8); &again[0] != &first[0] {
		t.Fatal("Rewind did not make the backing array reusable")
	}
}

func TestPOIArenaPartition(t *testing.T) {
	pois := []POI{{ID: 10}, {ID: 11}, {ID: 12}, {ID: 13}, {ID: 14}, {ID: 15}}
	owner := []int32{2, -1, 0, 2, 0, 2}
	count := []int32{2, 0, 3}
	var a POIArena
	a.Alloc(5) // the run starts mid-arena
	got := a.Partition(pois, owner, count)
	want := []int64{12, 14, 10, 13, 15}
	if len(got) != len(want) {
		t.Fatalf("Partition kept %d POIs, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("Partition = %v, want ids %v", got, want)
		}
	}
	if count[0] != 2 || count[1] != 2 || count[2] != 5 {
		t.Fatalf("run ends %v, want [2 2 5]", count)
	}
	if len(a.Partition(nil, nil, nil)) != 0 {
		t.Fatal("empty partition is not empty")
	}
}
