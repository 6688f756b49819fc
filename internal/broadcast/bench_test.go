package broadcast

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func benchSchedule(b *testing.B, n int) (*Schedule, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Area: geom.NewRect(0, 0, 64, 64), Order: 6, PacketCapacity: 8, M: 4}
	s, err := NewSchedule(randomPOIs(rng, n, 64), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s, rng
}

func BenchmarkScheduleBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pois := randomPOIs(rng, 2750, 64) // LA City database size
	cfg := Config{Area: geom.NewRect(0, 0, 64, 64), Order: 6, PacketCapacity: 8, M: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSchedule(pois, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The on-air benchmarks run the scratch form the simulator runs: one warm
// Scratch, no allocation per query.

func BenchmarkOnAirKNN(b *testing.B) {
	s, rng := benchSchedule(b, 2750)
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		s.KNN(&sc, q, 5, int64(i), Bounds{})
	}
}

func BenchmarkOnAirKNNWithBounds(b *testing.B) {
	s, rng := benchSchedule(b, 2750)
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		s.KNN(&sc, q, 5, int64(i), Bounds{Upper: 4, Lower: 2})
	}
}

func BenchmarkOnAirWindow(b *testing.B) {
	s, rng := benchSchedule(b, 2750)
	var sc Scratch
	windows := make([]geom.Rect, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*60, rng.Float64()*60
		windows[0] = geom.NewRect(cx, cy, cx+2, cy+2)
		s.Window(&sc, windows, int64(i))
	}
}

func BenchmarkGrowCompleteRect(b *testing.B) {
	s, _ := benchSchedule(b, 2750)
	var sc Scratch
	w := geom.NewRect(30, 30, 34, 34)
	_, _, retrieved, _ := s.Window(&sc, []geom.Rect{w}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GrowCompleteRect(&sc, w, retrieved, 200)
	}
}
