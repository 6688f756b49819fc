package core

import (
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// A tainted peer's VR must not strengthen the MVR, and its POIs must
// never verify — even when the geometry would verify them.
func TestTaintedPeerNeverVerifies(t *testing.T) {
	peer := PeerData{
		VR:      geom.NewRect(0, 0, 10, 10),
		POIs:    []broadcast.POI{{ID: 1, Pos: geom.Pt(5, 6)}},
		Tainted: true,
	}
	res := NNVScratch(new(Scratch), geom.Pt(5, 5), []PeerData{peer}, 1, 0.1)
	if res.InsideMVR {
		t.Fatal("tainted VR entered the MVR")
	}
	if res.Merged != 0 {
		t.Fatalf("Merged = %d, want 0", res.Merged)
	}
	if res.Heap.TaintedCount() != 1 {
		t.Fatalf("TaintedCount = %d, want 1", res.Heap.TaintedCount())
	}
	es := res.Heap.Entries()
	if len(es) != 1 || es[0].Verified || !es[0].Tainted {
		t.Fatalf("tainted candidate mis-verified: %+v", es)
	}
	if es[0].Correctness >= 1 {
		t.Fatalf("tainted candidate claims certainty: %+v", es[0])
	}
}

// Mixed pools merge in global distance order and taint is tracked per
// entry; untainted entries still verify inside the trusted MVR.
func TestMixedPoolMergeOrder(t *testing.T) {
	honest := PeerData{
		VR:   geom.NewRect(0, 0, 10, 10),
		POIs: []broadcast.POI{{ID: 1, Pos: geom.Pt(5, 6)}, {ID: 2, Pos: geom.Pt(5, 8)}},
	}
	liar := PeerData{
		VR:      geom.NewRect(0, 0, 10, 10),
		POIs:    []broadcast.POI{{ID: 900, Pos: geom.Pt(5, 5.5)}, {ID: 901, Pos: geom.Pt(5, 7)}},
		Tainted: true,
	}
	res := NNVScratch(new(Scratch), geom.Pt(5, 5), []PeerData{honest, liar}, 4, 0.1)
	es := res.Heap.Entries()
	if len(es) != 4 {
		t.Fatalf("heap len = %d, want 4", len(es))
	}
	wantIDs := []int64{900, 1, 901, 2} // distances 0.5, 1, 2, 3
	for i, e := range es {
		if e.POI.ID != wantIDs[i] {
			t.Fatalf("entry %d = POI %d, want %d", i, e.POI.ID, wantIDs[i])
		}
		if i > 0 && es[i].Dist < es[i-1].Dist {
			t.Fatal("heap not in ascending distance order")
		}
		wantTaint := e.POI.ID >= 900
		if e.Tainted != wantTaint {
			t.Fatalf("entry %d taint = %v, want %v", i, e.Tainted, wantTaint)
		}
		if e.Tainted && e.Verified {
			t.Fatalf("tainted entry verified: %+v", e)
		}
	}
	// The honest POIs verify despite the tainted competition: the MVR is
	// the honest VR, and both honest POIs are within its clearance.
	if !es[1].Verified || !es[3].Verified {
		t.Fatalf("honest entries lost verification: %+v", es)
	}
	if res.Heap.TaintedCount() != 2 {
		t.Fatalf("TaintedCount = %d, want 2", res.Heap.TaintedCount())
	}
}

// Zero tainted peers must reproduce the seed behavior exactly (the
// bit-identity contract of the trust layer).
func TestNoTaintBitIdentity(t *testing.T) {
	peers := []PeerData{
		{VR: geom.NewRect(0, 0, 6, 6), POIs: []broadcast.POI{{ID: 1, Pos: geom.Pt(1, 1)}, {ID: 2, Pos: geom.Pt(3, 3)}}},
		{VR: geom.NewRect(4, 4, 10, 10), POIs: []broadcast.POI{{ID: 3, Pos: geom.Pt(5, 5)}}},
	}
	q := geom.Pt(3, 4)
	a := NNVScratch(new(Scratch), q, peers, 2, 0.2)
	// Manual seed re-implementation: all VRs merged, candidates walked in
	// ascending order.
	if a.Merged != 2 || a.Heap.TaintedCount() != 0 || a.Examined != 2 {
		t.Fatalf("counters changed on the untainted path: %+v", a)
	}
	for i, e := range a.Heap.Entries() {
		if e.Tainted {
			t.Fatalf("entry %d tainted on the untainted path", i)
		}
	}
	b := NNVScratch(new(Scratch), q, peers, 2, 0.2)
	ea, eb := a.Heap.Entries(), b.Heap.Entries()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic heap")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// A tainted entry in the heap suppresses the upper search bound (a
// fabricated POI must not truncate the on-air search) but leaves the
// verified lower bound intact.
func TestTaintedSuppressesUpperBound(t *testing.T) {
	honest := PeerData{
		VR:   geom.NewRect(3, 3, 7, 7),
		POIs: []broadcast.POI{{ID: 1, Pos: geom.Pt(5, 5.5)}},
	}
	liar := PeerData{
		VR:      geom.NewRect(0, 0, 10, 10),
		POIs:    []broadcast.POI{{ID: 900, Pos: geom.Pt(5, 6)}},
		Tainted: true,
	}
	res := NNVScratch(new(Scratch), geom.Pt(5, 5), []PeerData{honest, liar}, 2, 0.1)
	if res.Heap.Len() != 2 || res.Heap.VerifiedCount() != 1 {
		t.Fatalf("setup: heap %+v", res.Heap.Entries())
	}
	b := res.Heap.SearchBounds()
	if b.Upper != 0 {
		t.Fatalf("tainted heap kept upper bound %v", b.Upper)
	}
	if b.Lower == 0 {
		t.Fatal("verified lower bound lost")
	}
	// Control: without the liar the full-mixed/full-verified heap states
	// may carry an upper bound.
	resHonest := NNVScratch(new(Scratch), geom.Pt(5, 5), []PeerData{honest, {VR: honest.VR, POIs: []broadcast.POI{{ID: 2, Pos: geom.Pt(5, 9)}}}}, 2, 0.1)
	if bb := resHonest.Heap.SearchBounds(); bb.Upper == 0 {
		t.Fatalf("control: honest full heap lost its upper bound: %+v", bb)
	}
}

// AppendTrustedPOIs drops exactly the tainted entries.
func TestAppendTrustedPOIs(t *testing.T) {
	h := new(Heap)
	h.Reset(3)
	h.add(Entry{POI: broadcast.POI{ID: 1}, Dist: 1, Verified: true})
	h.add(Entry{POI: broadcast.POI{ID: 900}, Dist: 2, Tainted: true})
	h.add(Entry{POI: broadcast.POI{ID: 2}, Dist: 3})
	got := h.AppendTrustedPOIs(nil)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("AppendTrustedPOIs = %+v", got)
	}
	all := h.AppendPOIs(nil)
	if len(all) != 3 {
		t.Fatalf("AppendPOIs = %+v", all)
	}
}

// SBWQ ignores tainted contributions entirely: coverage and candidates
// come only from trusted peers, so a lying VR cannot fake window
// coverage.
func TestSBWQSkipsTainted(t *testing.T) {
	w := geom.NewRect(2, 2, 8, 8)
	liar := PeerData{
		VR:      geom.NewRect(0, 0, 10, 10),
		POIs:    []broadcast.POI{{ID: 900, Pos: geom.Pt(5, 5)}},
		Tainted: true,
	}
	res := SBWQScratch(new(Scratch), geom.Pt(5, 5), w, []PeerData{liar}, SBWQConfig{}, nil, 0)
	if res.Outcome == OutcomeVerified {
		t.Fatal("tainted VR faked window coverage")
	}
	if res.Merged != 0 || res.CoveredFraction != 0 || len(res.POIs) != 0 {
		t.Fatalf("tainted contribution leaked into SBWQ: %+v", res)
	}
	// Control: the same peer untainted covers the window.
	honest := liar
	honest.Tainted = false
	res = SBWQScratch(new(Scratch), geom.Pt(5, 5), w, []PeerData{honest}, SBWQConfig{}, nil, 0)
	if res.Outcome != OutcomeVerified || res.Merged != 1 {
		t.Fatalf("control: honest coverage failed: %+v", res)
	}
}

// SBNN with only tainted peers cannot answer verified and, with no
// channel, returns only trusted (here: zero) POIs.
func TestSBNNTaintedDemotion(t *testing.T) {
	liar := PeerData{
		VR:      geom.NewRect(0, 0, 10, 10),
		POIs:    []broadcast.POI{{ID: 900, Pos: geom.Pt(5, 5.2)}},
		Tainted: true,
	}
	cfg := SBNNConfig{K: 1, Lambda: 0.1}
	res := SBNNScratch(new(Scratch), geom.Pt(5, 5), []PeerData{liar}, cfg, nil, 0)
	if res.Outcome == OutcomeVerified {
		t.Fatalf("tainted-only SBNN claimed verification: %+v", res)
	}
	if len(res.POIs) != 0 {
		t.Fatalf("tainted POI entered an exact answer set: %+v", res.POIs)
	}
	if res.Heap.TaintedCount() != 1 {
		t.Fatalf("TaintedCount = %d", res.Heap.TaintedCount())
	}
	// The approximate path is the sanctioned outlet: accepting
	// probabilistic answers may surface the tainted candidate, clearly
	// demoted (never verified).
	cfg.AcceptApproximate = true
	cfg.MinCorrectness = 0
	res = SBNNScratch(new(Scratch), geom.Pt(5, 5), []PeerData{liar}, cfg, nil, 0)
	if res.Outcome != OutcomeApproximate {
		t.Fatalf("approximate demotion path unavailable: %+v", res.Outcome)
	}
	for _, e := range res.Heap.Entries() {
		if e.Verified {
			t.Fatalf("approximate tainted entry verified: %+v", e)
		}
	}
}
