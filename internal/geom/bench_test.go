package geom

import (
	"math/rand"
	"testing"
)

func benchUnion(n int, seed int64) (*RectUnion, Point) {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]Rect, n)
	for i := range rects {
		cx, cy := rng.Float64()*20, rng.Float64()*20
		rects[i] = NewRect(cx, cy, cx+0.5+rng.Float64()*2, cy+0.5+rng.Float64()*2)
	}
	u := NewRectUnion(rects...)
	// A probe point inside some member.
	p := rects[0].Center()
	return u, p
}

func BenchmarkClearance16(b *testing.B) {
	u, p := benchUnion(16, 1)
	u.BoundaryDist(p) // build the row strips once; the loop measures warm probes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.BoundaryDist(p)
	}
}

// BenchmarkClearanceCold64 is the per-query cycle of the NNV hot path on
// a reused union: Reset, merge 64 members, first probe (strip build, row
// directory and search).
func BenchmarkClearanceCold64(b *testing.B) {
	src, p := benchUnion(64, 1)
	var u RectUnion
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Reset()
		for _, r := range src.Rects() {
			u.Add(r)
		}
		if _, ok := u.Clearance(p); !ok {
			b.Fatal("probe outside the union")
		}
	}
}

func BenchmarkDisjointDecompose64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, _ := benchUnion(64, int64(i))
		if len(u.Disjoint()) == 0 {
			b.Fatal("empty decomposition")
		}
	}
}

func BenchmarkCircleRectArea(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rects := make([]Rect, 256)
	for i := range rects {
		cx, cy := rng.Float64()*10-5, rng.Float64()*10-5
		rects[i] = NewRect(cx, cy, cx+1+rng.Float64()*3, cy+1+rng.Float64()*3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CircleRectArea(Pt(0, 0), 3, rects[i%len(rects)])
	}
}

// BenchmarkUnverifiedArea32 is NNV's per-query cycle on the reach square
// of a 32-member union: Reset, cut every member, clearance, one area.
func BenchmarkUnverifiedArea32(b *testing.B) {
	src, p := benchUnion(32, 3)
	var u Uncovered
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Reset(p, 2.5)
		for _, r := range src.Rects() {
			if u.Cut(r) {
				break
			}
		}
		u.Clearance()
		u.UnverifiedArea(2.5)
	}
}

func BenchmarkSubtractRect(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	covers := make([]Rect, 24)
	for i := range covers {
		cx, cy := rng.Float64()*10, rng.Float64()*10
		covers[i] = NewRect(cx, cy, cx+1+rng.Float64()*2, cy+1+rng.Float64()*2)
	}
	w := NewRect(2, 2, 9, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SubtractRect(w, covers)
	}
}
