package rtree

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func benchTree(b *testing.B, n int) (*Tree, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr := Bulk(randomItems(rng, n, 100), 16)
	return tr, rng
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 10000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(items, 16)
	}
}

// BenchmarkKNNBestFirst times AppendKNN with warm scratch and a dst of
// enough capacity, the way the simulator's ground-truth lookups call it.
func BenchmarkKNNBestFirst(b *testing.B) {
	tr, rng := benchTree(b, 10000)
	var s KNNScratch
	dst := tr.AppendKNN(nil, geom.Pt(50, 50), 10, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if dst = tr.AppendKNN(dst[:0], q, 10, &s); len(dst) != 10 {
			b.Fatal("short result")
		}
	}
}

func BenchmarkWindow(b *testing.B) {
	tr, rng := benchTree(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*95, rng.Float64()*95
		tr.Window(geom.NewRect(cx, cy, cx+5, cy+5))
	}
}
