package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// benchPeers builds sound peer data around the origin of a random POI
// field.
func benchPeers(rng *rand.Rand, db []broadcast.POI, n int) []PeerData {
	var peers []PeerData
	for i := 0; i < n; i++ {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		pd := PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	return peers
}

func benchDB(rng *rand.Rand, n int) []broadcast.POI {
	db := make([]broadcast.POI, n)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	return db
}

// The NNV benchmarks measure the steady-state hot path the simulator
// runs per query: a warm, reused Scratch (see NNVScratch). The *Cold
// variants keep the allocate-per-call cost visible for comparison.

func BenchmarkNNV8Peers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 8)
	q := geom.Pt(16, 16)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}

func BenchmarkNNV64Peers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}

func BenchmarkNNV64PeersCold(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(new(Scratch), q, peers, 5, 0.5)
	}
}

// BenchmarkNNVDense is NNV on a knn_dense-shaped query: 100 sound regions
// of a dense POI field scattered around q, about 40 of them within reach
// of the k = 5 rows, and a gap near q no region covers, so q is inside the
// MVR with a clearance short of reach and the last rows are priced by
// Lemma 3.2 (the approximate answers the dense workload accepts).
func BenchmarkNNVDense(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	db := benchDB(rng, 500)
	q, gap := geom.Pt(16, 16), geom.Pt(16.9, 16.5)
	var peers []PeerData
	for len(peers) < 100 {
		c := geom.Pt(q.X+(rng.Float64()*2-1)*4, q.Y+(rng.Float64()*2-1)*4)
		vr := geom.RectAround(c, 1.3*(0.5+rng.Float64()))
		if vr.Contains(gap) {
			continue
		}
		pd := PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	var s Scratch
	d2, _ := Reach(&s, q, peers, nil, 5)
	within := 0
	for _, in := range ReachCut(nil, q, peers, d2) {
		if in {
			within++
		}
	}
	res := NNVScratch(&s, q, peers, 5, 0.5)
	last := res.Heap.Entries()[res.Heap.Len()-1]
	if within < 30 || within > 50 || !res.InsideMVR || last.Verified {
		b.Fatalf("shape: %d regions within reach, inside %v, last row verified %v", within, res.InsideMVR, last.Verified)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}

func BenchmarkSBNNPeerResolved(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := benchDB(rng, 500)
	// One big sound region guarantees verification.
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	q := geom.Pt(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SBNNScratch(new(Scratch), q, []PeerData{pd}, cfg, sched, int64(i))
		if res.Outcome != OutcomeVerified {
			b.Fatal("expected verified outcome")
		}
	}
}

func BenchmarkSBNNBroadcastFallback(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	db := benchDB(rng, 500)
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*32, rng.Float64()*32)
		res := SBNNScratch(new(Scratch), q, nil, cfg, sched, int64(i))
		if res.Outcome != OutcomeBroadcast {
			b.Fatal("expected broadcast outcome")
		}
	}
}

func BenchmarkSBWQCovered(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db := benchDB(rng, 500)
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	w := geom.NewRect(14, 14, 18, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SBWQScratch(new(Scratch), geom.Pt(16, 16), w, []PeerData{pd}, SBWQConfig{}, nil, 0)
		if res.Outcome != OutcomeVerified {
			b.Fatal("expected verified outcome")
		}
	}
}

func BenchmarkCorrectnessProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CorrectnessProbability(0.3, float64(i%10))
	}
}
