package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func poi(id int64, x, y float64) broadcast.POI {
	return broadcast.POI{ID: id, Pos: geom.Pt(x, y)}
}

// --- Heap -------------------------------------------------------------

func TestHeapBasics(t *testing.T) {
	h := NewHeap(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatal("fresh heap state wrong")
	}
	if _, ok := h.LastDist(); ok {
		t.Error("empty heap must have no last distance")
	}
	if _, ok := h.LastVerifiedDist(); ok {
		t.Error("empty heap must have no verified distance")
	}
	h.add(Entry{POI: poi(1, 0, 0), Dist: 1, Verified: true, Correctness: 1})
	h.add(Entry{POI: poi(2, 0, 0), Dist: 2, Verified: true, Correctness: 1})
	h.add(Entry{POI: poi(3, 0, 0), Dist: 5, Correctness: 0.4})
	h.add(Entry{POI: poi(4, 0, 0), Dist: 6}) // beyond k: dropped
	if h.Len() != 3 || !h.Full() {
		t.Fatalf("len=%d full=%v", h.Len(), h.Full())
	}
	if h.VerifiedCount() != 2 || h.Len()-h.VerifiedCount() != 1 {
		t.Fatalf("verified=%d of %d", h.VerifiedCount(), h.Len())
	}
	if d, ok := h.LastDist(); !ok || d != 5 {
		t.Fatalf("LastDist = %v, %v", d, ok)
	}
	if d, ok := h.LastVerifiedDist(); !ok || d != 2 {
		t.Fatalf("LastVerifiedDist = %v, %v", d, ok)
	}
	if got := h.MinUnverifiedCorrectness(); got != 0.4 {
		t.Fatalf("MinUnverifiedCorrectness = %v", got)
	}
	if got := h.POIs(); len(got) != 3 || got[0].ID != 1 || got[2].ID != 3 {
		t.Fatalf("POIs = %v", got)
	}
	if NewHeap(-2).K() != 0 {
		t.Error("negative k must clamp to 0")
	}
}

func TestHeapStates(t *testing.T) {
	mk := func(k, verified, unverified int) *Heap {
		h := NewHeap(k)
		d := 1.0
		for i := 0; i < verified; i++ {
			h.add(Entry{Dist: d, Verified: true, Correctness: 1})
			d++
		}
		for i := 0; i < unverified; i++ {
			h.add(Entry{Dist: d, Correctness: 0.5})
			d++
		}
		return h
	}
	cases := []struct {
		k, v, u int
		want    State
	}{
		{3, 2, 1, StateFullMixed},
		{3, 0, 3, StateFullUnverified},
		{3, 3, 0, StateFullMixed}, // fulfilled query classifies as full
		{5, 2, 1, StatePartialMixed},
		{5, 2, 0, StatePartialVerified},
		{5, 0, 2, StatePartialUnverified},
		{5, 0, 0, StateEmpty},
	}
	for _, c := range cases {
		h := mk(c.k, c.v, c.u)
		if got := h.State(); got != c.want {
			t.Errorf("k=%d v=%d u=%d: state = %v want %v", c.k, c.v, c.u, got, c.want)
		}
	}
}

func TestSearchBoundsPerState(t *testing.T) {
	// State 1: both bounds.
	h := NewHeap(2)
	h.add(Entry{Dist: 1, Verified: true})
	h.add(Entry{Dist: 3})
	b := h.SearchBounds()
	if b.Upper != 3 || b.Lower != 1 {
		t.Fatalf("state 1 bounds = %+v", b)
	}
	// State 2: upper only.
	h = NewHeap(2)
	h.add(Entry{Dist: 2})
	h.add(Entry{Dist: 4})
	b = h.SearchBounds()
	if b.Upper != 4 || b.Lower != 0 {
		t.Fatalf("state 2 bounds = %+v", b)
	}
	// State 3/4: lower only.
	h = NewHeap(5)
	h.add(Entry{Dist: 1, Verified: true})
	h.add(Entry{Dist: 3})
	b = h.SearchBounds()
	if b.Upper != 0 || b.Lower != 1 {
		t.Fatalf("state 3 bounds = %+v", b)
	}
	h = NewHeap(5)
	h.add(Entry{Dist: 1.5, Verified: true})
	b = h.SearchBounds()
	if b.Upper != 0 || b.Lower != 1.5 {
		t.Fatalf("state 4 bounds = %+v", b)
	}
	// States 5/6: nothing.
	h = NewHeap(5)
	h.add(Entry{Dist: 2})
	if b = h.SearchBounds(); b != (broadcast.Bounds{}) {
		t.Fatalf("state 5 bounds = %+v", b)
	}
	if b = NewHeap(5).SearchBounds(); b != (broadcast.Bounds{}) {
		t.Fatalf("state 6 bounds = %+v", b)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateFullMixed:         "full-mixed",
		StateFullUnverified:    "full-unverified",
		StatePartialMixed:      "partial-mixed",
		StatePartialVerified:   "partial-verified",
		StatePartialUnverified: "partial-unverified",
		StateEmpty:             "empty",
		State(42):              "state(42)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", int(s), s.String())
		}
	}
	for o, want := range map[Outcome]string{
		OutcomeVerified:    "verified",
		OutcomeApproximate: "approximate",
		OutcomeBroadcast:   "broadcast",
		Outcome(9):         "unknown",
	} {
		if o.String() != want {
			t.Errorf("Outcome.String() = %q want %q", o.String(), want)
		}
	}
}

// --- Lemma 3.2 ---------------------------------------------------------

// TestLemma32PaperExample pins the worked example of Section 3.3.2 /
// Figure 7: lambda = 0.3 POIs per square unit, unverified region of 2
// square units ⇒ correctness probability e^{-0.6} ≈ 0.5488.
func TestLemma32PaperExample(t *testing.T) {
	got := CorrectnessProbability(0.3, 2)
	if !almostEqual(got, math.Exp(-0.6), 1e-12) {
		t.Fatalf("probability = %v want e^-0.6", got)
	}
	if !almostEqual(got, 0.5488, 0.0001) {
		t.Fatalf("probability = %v want ~0.5488 (paper)", got)
	}
}

func TestCorrectnessProbabilityEdges(t *testing.T) {
	if CorrectnessProbability(0.3, 0) != 1 {
		t.Error("zero area must give certainty")
	}
	if CorrectnessProbability(0.3, -1) != 1 {
		t.Error("negative area must give certainty")
	}
	if CorrectnessProbability(-1, 5) != 1 {
		t.Error("negative lambda must clamp to 0")
	}
	if p := CorrectnessProbability(10, 100); p > 1e-10 {
		t.Error("huge unverified region must give ~0")
	}
}

// --- NNV ---------------------------------------------------------------

// TestNNVFigure5Accept reproduces the accept case of Figure 5: the
// candidate nearest the query point is closer than the nearest MVR
// boundary edge and is verified.
func TestNNVFigure5Accept(t *testing.T) {
	// One peer VR: a 10x10 box centered on q at (5,5); nearest edge is 5
	// away. o1 at distance 2 must verify; o5 at distance 6 must not.
	peers := []PeerData{{
		VR:   geom.NewRect(0, 0, 10, 10),
		POIs: []broadcast.POI{poi(1, 5, 7), poi(5, 5, 11)}, // o5 actually outside VR
	}}
	// Keep o5 inside the VR but beyond the clearance: place at (5, 9.5)
	// distance 4.5 < 5 — that would verify. Use a second candidate just
	// outside the clearance by widening the VR asymmetrically.
	peers = []PeerData{{
		VR:   geom.NewRect(0, 0, 10, 14),
		POIs: []broadcast.POI{poi(1, 5, 7), poi(5, 5, 12)},
	}}
	// q=(5,5): clearance = 5 (left/right/bottom edges). o1 at distance 2:
	// verified. o5 at distance 7: unverified.
	res := NNV(geom.Pt(5, 5), peers, 2, 0.1)
	if !res.InsideMVR || !almostEqual(res.EdgeDist, 5, 1e-12) {
		t.Fatalf("inside=%v edge=%v", res.InsideMVR, res.EdgeDist)
	}
	es := res.Heap.Entries()
	if len(es) != 2 {
		t.Fatalf("heap len = %d", len(es))
	}
	if !es[0].Verified || es[0].POI.ID != 1 || !almostEqual(es[0].Dist, 2, 1e-12) {
		t.Fatalf("o1 entry = %+v", es[0])
	}
	if es[1].Verified || es[1].POI.ID != 5 {
		t.Fatalf("o5 entry = %+v", es[1])
	}
	if es[1].Correctness <= 0 || es[1].Correctness >= 1 {
		t.Fatalf("o5 correctness = %v", es[1].Correctness)
	}
	// Surpassing ratio = 7/2 = 3.5.
	if !almostEqual(es[1].Surpassing, 3.5, 1e-12) {
		t.Fatalf("surpassing = %v", es[1].Surpassing)
	}
}

// TestNNVFigure6Reject reproduces the reject case of Figure 6: a
// candidate farther than the nearest boundary edge cannot be verified
// because an unseen POI could hide in the unverified region.
func TestNNVFigure6Reject(t *testing.T) {
	peers := []PeerData{{
		VR:   geom.NewRect(4, 4, 6, 6), // tiny VR around q
		POIs: []broadcast.POI{poi(4, 5.9, 5.9)},
	}}
	res := NNV(geom.Pt(5, 5), peers, 1, 0.3)
	es := res.Heap.Entries()
	if len(es) != 1 {
		t.Fatalf("heap len = %d", len(es))
	}
	// Distance ~1.27 > clearance 1: unverified.
	if es[0].Verified {
		t.Fatal("candidate beyond clearance must stay unverified")
	}
}

func TestNNVOutsideMVR(t *testing.T) {
	peers := []PeerData{{
		VR:   geom.NewRect(10, 10, 12, 12),
		POIs: []broadcast.POI{poi(1, 11, 11)},
	}}
	res := NNV(geom.Pt(0, 0), peers, 2, 0.1)
	if res.InsideMVR || res.EdgeDist != 0 {
		t.Fatal("q outside MVR must disable verification")
	}
	if res.Heap.VerifiedCount() != 0 || res.Heap.Len() != 1 {
		t.Fatalf("heap = %+v", res.Heap.Entries())
	}
}

func TestNNVNoPeers(t *testing.T) {
	res := NNV(geom.Pt(0, 0), nil, 3, 0.1)
	if res.Heap.Len() != 0 || res.Heap.State() != StateEmpty {
		t.Fatal("no peers must yield empty heap")
	}
	if res.Examined != 0 {
		t.Fatalf("examined = %d", res.Examined)
	}
}

// TestNNVNonPositiveK pins that a request for no neighbors does no
// verification work: Heap.Full is false for k ≤ 0, so a loop that runs
// "until the heap is full" used to examine and price every candidate
// while the heap dropped them all.
func TestNNVNonPositiveK(t *testing.T) {
	peers := []PeerData{
		{VR: geom.NewRect(0, 0, 10, 10), POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 5, 4)}},
		{VR: geom.NewRect(0, 0, 10, 10), POIs: []broadcast.POI{poi(3, 7, 7)}, Tainted: true},
	}
	for _, k := range []int{0, -1} {
		res := NNV(geom.Pt(5, 5), peers, k, 0.1)
		if res.Heap.Len() != 0 || res.Examined != 0 {
			t.Fatalf("k=%d: heap len %d, examined %d, want an empty heap and no work",
				k, res.Heap.Len(), res.Examined)
		}
		if !res.InsideMVR || res.Merged != 1 {
			t.Fatalf("k=%d: inside=%v merged=%d", k, res.InsideMVR, res.Merged)
		}
	}
}

func TestNNVDeduplicatesPeers(t *testing.T) {
	// Two peers caching the same POI: one candidate, counted once.
	vr := geom.NewRect(0, 0, 10, 10)
	peers := []PeerData{
		{VR: vr, POIs: []broadcast.POI{poi(1, 5, 6)}},
		{VR: vr, POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 5, 4)}},
	}
	res := NNV(geom.Pt(5, 5), peers, 5, 0.1)
	if res.Examined != 2 {
		t.Fatalf("examined = %d want 2", res.Examined)
	}
	if res.Heap.Len() != 2 {
		t.Fatalf("heap len = %d", res.Heap.Len())
	}
}

// TestNNVVerifiedPrefixProperty checks the structural invariant: verified
// entries always precede unverified ones and the verified set is exactly
// the candidates within the clearance.
func TestNNVVerifiedPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		var peers []PeerData
		nPeers := 1 + rng.Intn(5)
		nextID := int64(0)
		for i := 0; i < nPeers; i++ {
			cx, cy := rng.Float64()*20, rng.Float64()*20
			vr := geom.NewRect(cx, cy, cx+2+rng.Float64()*6, cy+2+rng.Float64()*6)
			pd := PeerData{VR: vr}
			for j := 0; j < rng.Intn(6); j++ {
				pd.POIs = append(pd.POIs, broadcast.POI{
					ID: nextID,
					Pos: geom.Pt(
						vr.Min.X+rng.Float64()*vr.Width(),
						vr.Min.Y+rng.Float64()*vr.Height(),
					),
				})
				nextID++
			}
			peers = append(peers, pd)
		}
		q := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		k := 1 + rng.Intn(6)
		res := NNV(q, peers, k, 0.2)
		sawUnverified := false
		prevDist := -1.0
		for _, e := range res.Heap.Entries() {
			if e.Dist < prevDist {
				t.Fatalf("trial %d: heap not ascending", trial)
			}
			prevDist = e.Dist
			if e.Verified {
				if sawUnverified {
					t.Fatalf("trial %d: verified after unverified", trial)
				}
				if !res.InsideMVR || e.Dist > res.EdgeDist+1e-9 {
					t.Fatalf("trial %d: wrongly verified entry %+v (edge %v)",
						trial, e, res.EdgeDist)
				}
			} else {
				sawUnverified = true
				if e.Correctness <= 0 || e.Correctness > 1 {
					t.Fatalf("trial %d: correctness %v out of range", trial, e.Correctness)
				}
			}
		}
	}
}

// TestNNVSoundness is the key correctness property (Lemma 3.1): when the
// peers' verified regions are sound — each VR's POI list is exactly the
// database restricted to the VR — every verified entry is a true nearest
// neighbor of its rank.
func TestNNVSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 150; trial++ {
		// Build a random database.
		n := 30 + rng.Intn(70)
		db := make([]broadcast.POI, n)
		for i := range db {
			db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*20, rng.Float64()*20)}
		}
		// Build sound peer VRs.
		var peers []PeerData
		for i := 0; i < 1+rng.Intn(5); i++ {
			cx, cy := rng.Float64()*20, rng.Float64()*20
			vr := geom.NewRect(cx, cy, cx+1+rng.Float64()*8, cy+1+rng.Float64()*8)
			pd := PeerData{VR: vr}
			for _, p := range db {
				if vr.Contains(p.Pos) {
					pd.POIs = append(pd.POIs, p)
				}
			}
			peers = append(peers, pd)
		}
		q := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		k := 1 + rng.Intn(5)
		res := NNV(q, peers, k, 0.2)

		// Ground truth ranking.
		truth := append([]broadcast.POI(nil), db...)
		sort.Slice(truth, func(i, j int) bool {
			return truth[i].Pos.DistSq(q) < truth[j].Pos.DistSq(q)
		})
		for rank, e := range res.Heap.Entries() {
			if !e.Verified {
				break
			}
			if !almostEqual(e.Dist, truth[rank].Pos.Dist(q), 1e-9) {
				t.Fatalf("trial %d: verified rank %d dist %v but true %v",
					trial, rank, e.Dist, truth[rank].Pos.Dist(q))
			}
		}
	}
}
