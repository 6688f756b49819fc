package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// TestByzantinePeerCanPoisonVerification documents the trust model: NNV
// treats every shared verified region as a true promise (Section 3.2's
// honest-peer assumption). A peer that claims a region while omitting a
// POI inside it makes the querying host "verify" a wrong nearest
// neighbor — the failure the soundness invariant exists to prevent on
// the honest path. This is a property of the paper's design; the
// internal/trust subsystem closes it (see
// TestByzantinePeerCannotPoisonWithTrust, this test's regression pair),
// and this test pins that the *unscreened* path stays vulnerable — if it
// ever stops failing open, the trust layer's threat model is stale.
func TestByzantinePeerCanPoisonVerification(t *testing.T) {
	// Database: the true NN of q=(5,5) is o1 at (5,6).
	db := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 6)},
		{ID: 2, Pos: geom.Pt(5, 8)},
	}
	// The lying peer claims to know [0,10]² but omits o1.
	liar := PeerData{
		VR:   geom.NewRect(0, 0, 10, 10),
		POIs: []broadcast.POI{db[1]},
	}
	res := NNVScratch(new(Scratch), geom.Pt(5, 5), []PeerData{liar}, 1, 0.1)
	es := res.Heap.Entries()
	if len(es) != 1 {
		t.Fatalf("heap len = %d", len(es))
	}
	// The wrong POI o2 is "verified": distance 3 <= clearance 5.
	if !es[0].Verified || es[0].POI.ID != 2 {
		t.Fatalf("expected the lie to verify o2; got %+v", es[0])
	}
}

// TestHonestPeersCannotPoison is the converse: with sound peers, no
// composition of regions can verify a wrong answer (randomized check).
func TestHonestPeersCannotPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		n := 10 + rng.Intn(40)
		db := make([]broadcast.POI, n)
		for i := range db {
			db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
		}
		var peers []PeerData
		for i := 0; i < rng.Intn(5); i++ {
			cx, cy := rng.Float64()*10, rng.Float64()*10
			vr := geom.NewRect(cx, cy, cx+rng.Float64()*5, cy+rng.Float64()*5)
			pd := PeerData{VR: vr}
			for _, p := range db {
				if vr.Contains(p.Pos) {
					pd.POIs = append(pd.POIs, p)
				}
			}
			peers = append(peers, pd)
		}
		q := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		res := NNVScratch(new(Scratch), q, peers, 1, 0.3)
		if res.Heap.VerifiedCount() == 0 {
			continue
		}
		got := res.Heap.Entries()[0]
		bestD := -1.0
		for _, p := range db {
			if d := p.Pos.Dist(q); bestD < 0 || d < bestD {
				bestD = d
			}
		}
		if got.Dist != bestD {
			t.Fatalf("trial %d: honest peers verified a wrong NN (d=%v true=%v)",
				trial, got.Dist, bestD)
		}
	}
}
