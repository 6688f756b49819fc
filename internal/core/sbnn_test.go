package core

import (
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// testWorld builds a random POI database, a broadcast schedule over it,
// and sound peer caches.
type testWorld struct {
	db    []broadcast.POI
	sched *broadcast.Schedule
	area  geom.Rect
}

func newTestWorld(t *testing.T, rng *rand.Rand, n int) *testWorld {
	t.Helper()
	area := geom.NewRect(0, 0, 32, 32)
	db := make([]broadcast.POI, n)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{
		Area:           area,
		Order:          4,
		PacketCapacity: 4,
		M:              4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{db: db, sched: sched, area: area}
}

// soundPeers builds peers whose VRs are sound w.r.t. the database.
func (w *testWorld) soundPeers(rng *rand.Rand, count int) []PeerData {
	var peers []PeerData
	for i := 0; i < count; i++ {
		cx, cy := rng.Float64()*32, rng.Float64()*32
		vr := geom.NewRect(cx, cy, cx+2+rng.Float64()*8, cy+2+rng.Float64()*8)
		pd := PeerData{VR: vr}
		for _, p := range w.db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	return peers
}

func (w *testWorld) truth(q geom.Point, k int) []broadcast.POI {
	s := append([]broadcast.POI(nil), w.db...)
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

// TestSBNNExactness: whatever the outcome except approximate, SBNN must
// return exactly the true k nearest neighbors.
func TestSBNNExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := newTestWorld(t, rng, 250)
	for trial := 0; trial < 120; trial++ {
		q := geom.Pt(rng.Float64()*32, rng.Float64()*32)
		peers := w.soundPeers(rng, rng.Intn(6))
		k := 1 + rng.Intn(6)
		res := SBNNScratch(new(Scratch), q, peers, SBNNConfig{K: k, Lambda: 0.2}, w.sched, rng.Int63n(1000))
		if res.Outcome == OutcomeApproximate {
			t.Fatalf("trial %d: approximate outcome without acceptance", trial)
		}
		want := w.truth(q, k)
		if len(res.POIs) != len(want) {
			t.Fatalf("trial %d: got %d POIs want %d (outcome %v)",
				trial, len(res.POIs), len(want), res.Outcome)
		}
		for i := range want {
			if !almostEqual(res.POIs[i].Pos.Dist(q), want[i].Pos.Dist(q), 1e-9) {
				t.Fatalf("trial %d: rank %d distance mismatch (outcome %v, bounds %+v)",
					trial, i, res.Outcome, res.Bounds)
			}
		}
		// Verified outcomes must not touch the channel.
		if res.Outcome == OutcomeVerified && res.Access.PacketsRead != 0 {
			t.Fatalf("trial %d: verified outcome read packets", trial)
		}
		// Broadcast outcomes must report channel cost.
		if res.Outcome == OutcomeBroadcast && res.Access.IndexReads == 0 {
			t.Fatalf("trial %d: broadcast outcome without index read", trial)
		}
	}
}

// TestSBNNVerifiedWithBigPeerCoverage: a peer covering a huge region
// around q should fully verify small-k queries with zero channel access.
func TestSBNNVerifiedWithBigPeerCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newTestWorld(t, rng, 300)
	q := geom.Pt(16, 16)
	vr := geom.NewRect(4, 4, 28, 28)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	res := SBNNScratch(new(Scratch), q, []PeerData{pd}, SBNNConfig{K: 3, Lambda: 0.3}, w.sched, 0)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	want := w.truth(q, 3)
	for i := range want {
		if res.POIs[i].ID != want[i].ID {
			t.Fatalf("rank %d: got %d want %d", i, res.POIs[i].ID, want[i].ID)
		}
	}
}

// TestSBNNApproximateAcceptance: with acceptance on and a permissive
// threshold, a full heap resolves without the channel.
func TestSBNNApproximateAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := newTestWorld(t, rng, 200)
	q := geom.Pt(16, 16)
	// A medium peer region: some candidates verified, heap fills, tail
	// unverified.
	vr := geom.NewRect(12, 12, 20, 20)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	if len(pd.POIs) < 4 {
		t.Skip("layout produced too few cached POIs")
	}
	k := len(pd.POIs) // force unverified tail entries
	cfgAccept := SBNNConfig{K: k, Lambda: 0.05, AcceptApproximate: true, MinCorrectness: 0}
	res := SBNNScratch(new(Scratch), q, []PeerData{pd}, cfgAccept, w.sched, 0)
	if res.Outcome == OutcomeBroadcast {
		t.Fatalf("acceptance with zero threshold still used the channel (heap %v/%v)",
			res.Heap.VerifiedCount(), res.Heap.Len())
	}
	// With threshold 1.0 the same query must fall back (unless fully
	// verified, which k=len(POIs) makes unlikely here).
	if res.Outcome == OutcomeApproximate {
		cfgStrict := cfgAccept
		cfgStrict.MinCorrectness = 1.0
		res2 := SBNNScratch(new(Scratch), q, []PeerData{pd}, cfgStrict, w.sched, 0)
		if res2.Outcome == OutcomeApproximate {
			t.Fatal("threshold 1.0 must reject unverified entries")
		}
	}
}

// TestSBNNNoPeersFallsBack: with no peers at all, SBNN is exactly the
// plain on-air query.
func TestSBNNNoPeersFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := newTestWorld(t, rng, 150)
	q := geom.Pt(10, 20)
	res := SBNNScratch(new(Scratch), q, nil, SBNNConfig{K: 4, Lambda: 0.2}, w.sched, 7)
	if res.Outcome != OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Bounds != (broadcast.Bounds{}) {
		t.Fatalf("empty heap must give no bounds: %+v", res.Bounds)
	}
	want := w.truth(q, 4)
	for i := range want {
		if res.POIs[i].ID != want[i].ID {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

// TestSBNNNilSchedule: without a channel, the best-effort peer answer is
// returned.
func TestSBNNNilSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newTestWorld(t, rng, 100)
	peers := w.soundPeers(rng, 2)
	q := geom.Pt(16, 16)
	res := SBNNScratch(new(Scratch), q, peers, SBNNConfig{K: 10, Lambda: 0.2}, nil, 0)
	if res.Outcome != OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Access.PacketsRead != 0 {
		t.Fatal("nil schedule cannot read packets")
	}
	if len(res.POIs) != res.Heap.Len() {
		t.Fatalf("POIs %d != heap %d", len(res.POIs), res.Heap.Len())
	}
}

// TestSBNNBoundsReduceChannelWork: with strong peer knowledge the
// filtered on-air search must read no more packets than the plain one.
func TestSBNNBoundsReduceChannelWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := newTestWorld(t, rng, 400)
	q := geom.Pt(16, 16)
	vr := geom.NewRect(10, 10, 22, 22)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	k := len(pd.POIs) + 5 // guarantees fallback with a mixed heap
	resShared := SBNNScratch(new(Scratch), q, []PeerData{pd}, SBNNConfig{K: k, Lambda: 0.2}, w.sched, 0)
	resPlain := SBNNScratch(new(Scratch), q, nil, SBNNConfig{K: k, Lambda: 0.2}, w.sched, 0)
	if resShared.Outcome != OutcomeBroadcast || resPlain.Outcome != OutcomeBroadcast {
		t.Skip("unexpected outcomes for this layout")
	}
	if resShared.Access.PacketsRead > resPlain.Access.PacketsRead {
		t.Fatalf("sharing increased channel reads: %d > %d",
			resShared.Access.PacketsRead, resPlain.Access.PacketsRead)
	}
	// Results still exact.
	want := w.truth(q, k)
	for i := range want {
		if !almostEqual(resShared.POIs[i].Pos.Dist(q), want[i].Pos.Dist(q), 1e-9) {
			t.Fatalf("rank %d mismatch with bounds %+v", i, resShared.Bounds)
		}
	}
}

func TestSBNNZeroK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newTestWorld(t, rng, 50)
	res := SBNNScratch(new(Scratch), geom.Pt(5, 5), nil, SBNNConfig{K: 0, Lambda: 0.2}, w.sched, 0)
	if len(res.POIs) != 0 {
		t.Fatalf("k=0 returned %d POIs", len(res.POIs))
	}
}
