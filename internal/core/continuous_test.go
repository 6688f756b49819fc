package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// contTestDB builds a synthetic database and sound peers over it: each
// peer's region holds exactly the database POIs inside it, the honest
// cached-result contract the safe-exit math relies on.
func contTestDB(rng *rand.Rand, nPOIs, nPeers int) ([]broadcast.POI, []PeerData) {
	db := make([]broadcast.POI, nPOIs)
	for i := range db {
		db[i] = broadcast.POI{
			ID:  int64(i + 1),
			Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10),
		}
	}
	peers := make([]PeerData, 0, nPeers)
	for i := 0; i < nPeers; i++ {
		c := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		vr := geom.RectAround(c, 0.5+rng.Float64()*2.5)
		var pois []broadcast.POI
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pois = append(pois, p)
			}
		}
		peers = append(peers, PeerData{VR: vr, POIs: pois})
	}
	return db, peers
}

// bruteKNN returns the exact top-k ID set over the whole database in the
// algorithms' (distance, ID) total order.
func bruteKNN(db []broadcast.POI, q geom.Point, k int) map[int64]bool {
	sorted := append([]broadcast.POI(nil), db...)
	sort.Slice(sorted, func(i, j int) bool { return candBefore(sorted[i], sorted[j], q) })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	ids := make(map[int64]bool, len(sorted))
	for _, p := range sorted {
		ids[p.ID] = true
	}
	return ids
}

func sameIDSet(answer []broadcast.POI, want map[int64]bool) bool {
	if len(answer) != len(want) {
		return false
	}
	for _, p := range answer {
		if !want[p.ID] {
			return false
		}
	}
	return true
}

// Differential property: any query position strictly inside the
// safe-exit radius of a verified kNN answer yields the identical answer
// set as a brute-force re-run over the full database.
func TestQuickSafeExitKNNDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, peers := contTestDB(rng, 40+rng.Intn(80), 3+rng.Intn(6))
		q := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		k := 1 + rng.Intn(4)
		nnv := NNVScratch(new(Scratch), q, peers, k, 1)
		if nnv.Heap.VerifiedCount() < k {
			return true // not a verified answer; no safe region to test
		}
		answer := nnv.Heap.AppendPOIs(nil)
		var cands []broadcast.POI
		for _, p := range peers {
			cands = append(cands, p.POIs...)
		}
		var s Scratch
		rs := SafeExitKNN(&s, q, answer, cands, nnv.MVR.Rects())
		if rs <= 0 {
			return true
		}
		for trial := 0; trial < 24; trial++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * rs * 0.999
			q2 := geom.Pt(q.X+step*math.Cos(ang), q.Y+step*math.Sin(ang))
			if !sameIDSet(answer, bruteKNN(db, q2, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Differential property: any rigid translation of a covered window
// strictly inside its safe-exit radius keeps the exact window answer
// (ID set) identical to a brute-force re-run over the full database.
func TestQuickSafeExitWindowDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, peers := contTestDB(rng, 40+rng.Intn(80), 3+rng.Intn(6))
		c := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		w := geom.RectAround(c, 0.1+rng.Float64()*1.2)
		res := SBWQScratch(new(Scratch), c, w, peers, SBWQConfig{}, nil, 0)
		var answer, cands []broadcast.POI
		for _, p := range peers {
			cands = append(cands, p.POIs...)
		}
		for _, p := range db {
			if w.Contains(p.Pos) {
				answer = append(answer, p)
			}
		}
		var s Scratch
		rs := SafeExitWindow(&s, w, cands, res.MVR.Rects())
		if res.Outcome != OutcomeVerified {
			return rs == 0 // window not covered; no exact answer to maintain
		}
		if rs <= 0 {
			return true
		}
		want := make(map[int64]bool, len(answer))
		for _, p := range answer {
			want[p.ID] = true
		}
		for trial := 0; trial < 24; trial++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * rs * 0.999
			v := geom.Pt(step*math.Cos(ang), step*math.Sin(ang))
			moved := geom.Rect{Min: w.Min.Add(v), Max: w.Max.Add(v)}
			var got []broadcast.POI
			for _, p := range db {
				if moved.Contains(p.Pos) {
					got = append(got, p)
				}
			}
			if !sameIDSet(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSafeExitKNNHand(t *testing.T) {
	var s Scratch
	q := geom.Pt(5, 5)
	answer := []broadcast.POI{{ID: 1, Pos: geom.Pt(5, 6)}} // dK = 1
	cands := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 6)},
		{ID: 2, Pos: geom.Pt(5, 9)}, // nearest non-answer at 4
	}
	// clearance 10 > candidate margin: rs = (4-1)/2.
	wide := []geom.Rect{geom.RectAround(q, 10)}
	if rs := SafeExitKNN(&s, q, answer, cands, wide); math.Abs(rs-1.5) > 1e-12 {
		t.Errorf("candidate-limited: got %g, want 1.5", rs)
	}
	// clearance 2 < candidate margin: rs = (2-1)/2, whether the region is
	// one square or two halves sharing an edge through q.
	for _, region := range [][]geom.Rect{
		{geom.RectAround(q, 2)},
		{geom.NewRect(3, 3, 5, 7), geom.NewRect(5, 3, 7, 7)},
	} {
		if rs := SafeExitKNN(&s, q, answer, cands, region); math.Abs(rs-0.5) > 1e-12 {
			t.Errorf("clearance-limited %v: got %g, want 0.5", region, rs)
		}
	}
	// Tie: a non-answer candidate at the same distance pins rs to zero.
	tie := append(cands, broadcast.POI{ID: 3, Pos: geom.Pt(5, 4)})
	if rs := SafeExitKNN(&s, q, answer, tie, wide); rs != 0 {
		t.Errorf("tie: got %g, want 0", rs)
	}
	if rs := SafeExitKNN(&s, q, nil, cands, wide); rs != 0 {
		t.Errorf("empty answer: got %g, want 0", rs)
	}
	// q outside the region, on its edge, or with no region at all.
	for _, region := range [][]geom.Rect{{geom.NewRect(6, 6, 9, 9)}, {geom.NewRect(5, 0, 9, 9)}, nil} {
		if rs := SafeExitKNN(&s, q, answer, cands, region); rs != 0 {
			t.Errorf("region %v: got %g, want 0", region, rs)
		}
	}
}

func TestSafeExitWindowHand(t *testing.T) {
	var s Scratch
	w := geom.NewRect(2, 2, 8, 8)
	cands := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 5)},  // inside, 3 from boundary
		{ID: 2, Pos: geom.Pt(9, 5)},  // outside, 1 from boundary
		{ID: 3, Pos: geom.Pt(20, 5)}, // far away
	}
	if rs := SafeExitWindow(&s, w, cands, []geom.Rect{w.Expand(10)}); math.Abs(rs-1) > 1e-12 {
		t.Errorf("candidate-limited: got %g, want 1", rs)
	}
	if rs := SafeExitWindow(&s, w, cands, []geom.Rect{w.Expand(0.25)}); math.Abs(rs-0.25) > 1e-12 {
		t.Errorf("coverage-limited: got %g, want 0.25", rs)
	}
	if rs := SafeExitWindow(&s, w, nil, []geom.Rect{w.Expand(2)}); math.Abs(rs-2) > 1e-12 {
		t.Errorf("no candidates: got %g, want 2", rs)
	}
	// Two members meeting along x = 5 cover w with the margin of the
	// outer one; a gap between them leaves w uncovered.
	if rs := SafeExitWindow(&s, w, nil, []geom.Rect{geom.NewRect(1, 1, 5, 9), geom.NewRect(5, 0.5, 10, 9.5)}); rs != 1 {
		t.Errorf("seam: got %g, want 1", rs)
	}
	if rs := SafeExitWindow(&s, w, nil, []geom.Rect{geom.NewRect(1, 1, 5, 9), geom.NewRect(5.5, 1, 10, 9)}); rs != 0 {
		t.Errorf("gap: got %g, want 0", rs)
	}
}

// refSafeExitKNN and refSafeExitWindow are the safe-exit radii given the
// whole clearance, uncapped — the formulas as they stood before the
// clearance was cut in a capped frame: min(clearance, candidates), less
// the farthest answer distance and halved for kNN.
func refSafeExitKNN(q geom.Point, answer, candidates []broadcast.POI, clearance float64) float64 {
	if len(answer) == 0 || clearance <= 0 {
		return 0
	}
	dK := 0.0
	for _, p := range answer {
		dK = max(dK, p.Pos.Dist(q))
	}
	minOther := clearance
	for _, c := range candidates {
		if d := c.Pos.Dist(q); d < minOther && !inAnswer(answer, c.ID) {
			minOther = d
		}
	}
	if r := (minOther - dK) / 2; r > 0 {
		return r
	}
	return 0
}

func refSafeExitWindow(w geom.Rect, candidates []broadcast.POI, clearance float64) float64 {
	r := clearance
	for _, c := range candidates {
		r = min(r, w.BoundaryDist(c.Pos))
	}
	return max(r, 0)
}

// wholeClearance is how far w may translate inside the union of region,
// measured in the frame of the whole bounding box: zero unless the kernel
// framed by w leaves nothing of it.
func wholeClearance(w geom.Rect, region []geom.Rect) float64 {
	var u geom.Uncovered
	u.Reset(w)
	u.CutAll(region)
	if len(u.Pieces()) > 0 {
		return 0
	}
	u.Reset(geom.Bounds(region))
	u.CutAll(region)
	return u.Dist(w)
}

// TestSafeExitCapIsExact pins the capped frame (DESIGN.md §15.2): the
// safe-exit radii cut the clearance only in the frame grown just past the
// nearest candidate bound, yet equal, bit for bit, the radii computed
// from the whole clearance — on grid geometry, where clearances tie
// candidate distances and members share edges, and on real-valued
// geometry.
func TestSafeExitCapIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		grid := trial%2 == 0
		coord := func() float64 {
			if grid {
				return float64(rng.Intn(12))
			}
			return rng.Float64() * 12
		}
		region := make([]geom.Rect, 1+rng.Intn(6))
		for i := range region {
			region[i] = geom.NewRect(coord(), coord(), coord(), coord())
		}
		region = geom.NewRectUnion(region...).Rects()
		cands := make([]broadcast.POI, rng.Intn(8))
		for i := range cands {
			cands[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(coord(), coord())}
		}
		q := geom.Pt(coord(), coord())
		answer := cands[:min(len(cands), rng.Intn(3))]
		whole := 0.0
		if geom.NewRectUnion(region...).Contains(q) {
			whole = geom.NewRectUnion(region...).BoundaryDist(q)
		}
		got, want := SafeExitKNN(&s, q, answer, cands, region), refSafeExitKNN(q, answer, cands, whole)
		if got != want {
			t.Fatalf("trial %d: SafeExitKNN(%v, answer %v, cands %v, region %v) = %v, whole clearance %v gives %v",
				trial, q, answer, cands, region, got, whole, want)
		}
		a, b := geom.Pt(coord(), coord()), geom.Pt(coord(), coord())
		w := geom.NewRect(a.X, a.Y, b.X, b.Y)
		whole = wholeClearance(w, region)
		if got, want := SafeExitWindow(&s, w, cands, region), refSafeExitWindow(w, cands, whole); got != want {
			t.Fatalf("trial %d: SafeExitWindow(%v, cands %v, region %v) = %v, whole clearance %v gives %v",
				trial, w, cands, region, got, whole, want)
		}
	}
}
