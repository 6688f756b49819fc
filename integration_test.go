package lbsq_test

import (
	"math/rand"
	"testing"

	"lbsq"
)

// TestKnowledgePropagationChain: verified knowledge hops host-to-host.
// A queries the channel; B answers from A's cache and caches the verified
// knowledge itself; C then answers from B alone — two sharing hops away
// from the only channel access.
func TestKnowledgePropagationChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	srv := demoServer(t, rng, 300)
	at := lbsq.Pt(10, 10)

	a := lbsq.NewClient(srv, at, 100)
	first := a.KNN(10, nil)
	if first.Outcome != lbsq.OutcomeBroadcast {
		t.Fatalf("A outcome = %v", first.Outcome)
	}

	// B asks for a generous k so the verified square it caches (inscribed
	// in its k-th verified distance) comfortably contains C's nearest
	// neighbor.
	b := lbsq.NewClient(srv, at, 100)
	second := b.KNN(6, a.Share())
	if second.Outcome != lbsq.OutcomeVerified {
		t.Fatalf("B outcome = %v (heap %d/%d verified)", second.Outcome,
			second.Heap.VerifiedCount(), second.Heap.Len())
	}
	if b.CacheSize() == 0 {
		t.Fatal("B cached nothing from a verified answer")
	}

	c := lbsq.NewClient(srv, at, 100)
	third := c.KNN(1, b.Share())
	if third.Outcome != lbsq.OutcomeVerified {
		t.Fatalf("C outcome = %v (B shared %d regions)", third.Outcome, len(b.Share()))
	}
	// All three agree on the nearest neighbor.
	if third.POIs[0].ID != second.POIs[0].ID || third.POIs[0].ID != first.POIs[0].ID {
		t.Fatal("nearest neighbor changed along the chain")
	}
}

// TestWindowAgainstLinearScan cross-checks the full sharing pipeline
// against a linear scan of the database, which shares no index with it:
// whatever mixture of peer caches answers a window query, the result
// holds exactly the POIs the window contains.
func TestWindowAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	srv := demoServer(t, rng, 400)

	// A rolling population of clients issuing and sharing window queries.
	var fleet []*lbsq.Client
	for i := 0; i < 6; i++ {
		fleet = append(fleet, lbsq.NewClient(srv,
			lbsq.Pt(rng.Float64()*20, rng.Float64()*20), 60))
	}
	for round := 0; round < 40; round++ {
		c := fleet[rng.Intn(len(fleet))]
		c.MoveTo(lbsq.Pt(rng.Float64()*18+1, rng.Float64()*18+1))
		side := 0.5 + rng.Float64()*2
		w := lbsq.RectAround(c.Pos(), side/2)
		var peers []lbsq.PeerData
		for _, other := range fleet {
			if other != c {
				peers = append(peers, other.Share()...)
			}
		}
		res := c.Window(w, peers)
		var want []int64
		for _, p := range srv.POIs() {
			if w.Contains(p.Pos) {
				want = append(want, p.ID)
			}
		}
		if len(res.POIs) != len(want) {
			t.Fatalf("round %d: got %d POIs want %d (outcome %v)",
				round, len(res.POIs), len(want), res.Outcome)
		}
		ids := map[int64]bool{}
		for _, p := range res.POIs {
			ids[p.ID] = true
		}
		for _, id := range want {
			if !ids[id] {
				t.Fatalf("round %d: missing POI %d", round, id)
			}
		}
	}
}

// TestMixedQueryWorkloadStaysExact: interleaved kNN and window queries
// with promiscuous sharing never produce a wrong exact answer.
func TestMixedQueryWorkloadStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	srv := demoServer(t, rng, 350)
	var fleet []*lbsq.Client
	for i := 0; i < 8; i++ {
		fleet = append(fleet, lbsq.NewClient(srv,
			lbsq.Pt(rng.Float64()*20, rng.Float64()*20), 40))
	}
	for round := 0; round < 60; round++ {
		c := fleet[rng.Intn(len(fleet))]
		c.MoveTo(lbsq.Pt(rng.Float64()*20, rng.Float64()*20))
		var peers []lbsq.PeerData
		for _, other := range fleet {
			if other != c {
				peers = append(peers, other.Share()...)
			}
		}
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(6)
			res := c.KNN(k, peers)
			if res.Outcome == lbsq.OutcomeApproximate {
				continue // approximate answers are advisory by contract
			}
			want := truthKNN(srv.POIs(), c.Pos(), k)
			if len(res.POIs) != len(want) {
				t.Fatalf("round %d: kNN size %d want %d", round, len(res.POIs), len(want))
			}
			for i := range want {
				gd := res.POIs[i].Pos.Dist(c.Pos())
				wd := want[i].Pos.Dist(c.Pos())
				if gd != wd {
					t.Fatalf("round %d: rank %d dist %v want %v (outcome %v)",
						round, i, gd, wd, res.Outcome)
				}
			}
		} else {
			w := lbsq.RectAround(c.Pos(), 0.5+rng.Float64())
			res := c.Window(w, peers)
			count := 0
			for _, p := range srv.POIs() {
				if w.Contains(p.Pos) {
					count++
				}
			}
			if len(res.POIs) != count {
				t.Fatalf("round %d: window %d want %d (outcome %v)",
					round, len(res.POIs), count, res.Outcome)
			}
		}
	}
}

// TestCachesStayWithinCapacity under the mixed workload.
func TestCachesStayWithinCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	srv := demoServer(t, rng, 300)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 25)
	for round := 0; round < 50; round++ {
		c.MoveTo(lbsq.Pt(rng.Float64()*20, rng.Float64()*20))
		if rng.Intn(2) == 0 {
			c.KNN(1+rng.Intn(8), nil)
		} else {
			c.Window(lbsq.RectAround(c.Pos(), 0.5+rng.Float64()), nil)
		}
		if c.CacheSize() > 25 {
			t.Fatalf("round %d: cache size %d exceeds capacity 25", round, c.CacheSize())
		}
	}
	if c.CacheSize() == 0 {
		t.Fatal("cache never filled")
	}
}
