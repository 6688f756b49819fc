//go:build !race

// Steady-state allocation assertions for the scratch-based query hot
// path. Excluded under the race detector: -race instruments allocations
// and makes AllocsPerRun counts meaningless.

package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// TestNNVScratchZeroAllocs pins the core zero-allocation contract: a
// warm Scratch answers NNV without touching the heap allocator. The sim
// loop runs this path once per query over tens of thousands of hosts,
// so any regression here fails the build rather than silently costing
// GC time.
func TestNNVScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	var s Scratch
	NNVScratch(&s, q, peers, 5, 0.5) // warm the scratch to capacity
	NNVScratch(&s, q, peers, 5, 0.5)
	allocs := testing.AllocsPerRun(50, func() {
		NNVScratch(&s, q, peers, 5, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("warm NNVScratch allocates %.1f times per run, want 0", allocs)
	}

	// The same with one peer in seven tainted (both candidate pools, the
	// reach square cut by a strict subset of the MVR's regions), k from 1
	// to past the trusted pool's size.
	q, peers, _ = peerWorkload()
	for k := 1; k <= 256; k *= 4 {
		NNVScratch(&s, q, peers, k, 0.5)
	}
	allocs = testing.AllocsPerRun(20, func() {
		for k := 1; k <= 256; k *= 4 {
			NNVScratch(&s, q, peers, k, 0.5)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm NNVScratch with tainted peers allocates %.1f times per run, want 0", allocs)
	}
}

// TestSBNNScratchSteadyAllocs bounds the warm SBNN path. A verified
// answer still allocates its KnownRegion POI copy (callers hand it to
// their cache, which retains it — see the PeerData contract), so the
// bound is the fresh result copy, not zero.
func TestSBNNScratchSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := benchDB(rng, 500)
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	peers := []PeerData{pd}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	q := geom.Pt(16, 16)
	var s Scratch
	res := SBNNScratch(&s, q, peers, cfg, nil, 0)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome %v, want verified", res.Outcome)
	}
	allocs := testing.AllocsPerRun(50, func() {
		SBNNScratch(&s, q, peers, cfg, nil, 0)
	})
	// One allocation for the fresh Known slice is the by-design floor.
	if allocs > 1 {
		t.Fatalf("warm verified SBNNScratch allocates %.1f times per run, want <= 1", allocs)
	}
}

// The broadcast path has the same floor: the on-air client runs in the
// scratch and Known is counted, then allocated once — without peers (the
// plain on-air search) and with peers whose heap supplies search bounds.
func TestSBNNScratchBroadcastPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := newTestWorld(t, rng, 400)
	cfg := SBNNConfig{K: 5, Lambda: 0.4}
	var s Scratch
	for name, peers := range map[string][]PeerData{"no peers": nil, "three peers": w.soundPeers(rng, 3)} {
		onAir := 0
		query := func(i int) {
			q := geom.Pt(float64(i*7%32), float64(i*13%32))
			if SBNNScratch(&s, q, peers, cfg, w.sched, int64(i)).Outcome == OutcomeBroadcast {
				onAir++
			}
		}
		for i := 0; i < 64; i++ {
			query(i) // warm the scratch to capacity
		}
		if onAir < 32 {
			t.Fatalf("%s: only %d of 64 queries reached the channel", name, onAir)
		}
		i := 0
		if allocs := testing.AllocsPerRun(64, func() { query(i); i++ }); allocs > 1 {
			t.Fatalf("%s: warm SBNNScratch allocates %.2f times per query, want <= 1", name, allocs)
		}
	}
}
