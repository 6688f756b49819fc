//go:build !race

// Steady-state allocation assertions for the scratch-based query hot
// path. Excluded under the race detector: -race instruments allocations
// and makes AllocsPerRun counts meaningless.

package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
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

// TestSBNNScratchSteadyAllocs pins the warm SBNN path at zero: the
// answer and Known live in the scratch, and a caller that caches Known
// hands it to Cache.Insert, which keeps a copy (DESIGN.md §9.1 rule 3).
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
	if res.Outcome != OutcomeVerified || len(res.Known) == 0 {
		t.Fatalf("outcome %v with %d known, want verified with some", res.Outcome, len(res.Known))
	}
	allocs := testing.AllocsPerRun(50, func() {
		SBNNScratch(&s, q, peers, cfg, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("warm verified SBNNScratch allocates %.1f times per run, want 0", allocs)
	}
}

// The broadcast path allocates nothing either: the on-air client runs in
// the scratch and Known is cut into it — without peers (the plain on-air
// search) and with peers whose heap supplies search bounds.
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
		if allocs := testing.AllocsPerRun(64, func() { query(i); i++ }); allocs != 0 {
			t.Fatalf("%s: warm SBNNScratch allocates %.2f times per query, want 0", name, allocs)
		}
	}
}

// TestSBWQScratchZeroAllocs pins the warm window paths at zero: the answer
// is the candidate buffer and a grown region's Known is cut into the
// scratch, on a covered window, on an on-air window whose known region is
// the window itself (its Known is the answer), on one whose region grows
// past it, and with no channel.
func TestSBWQScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newTestWorld(t, rng, 400)
	win := geom.NewRect(12.3, 12.3, 16.7, 16.7)
	peer := func(vr geom.Rect) []PeerData {
		pd := PeerData{VR: vr}
		for _, p := range w.db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		return []PeerData{pd}
	}
	cover, half := peer(geom.NewRect(10, 10, 18, 18)), peer(geom.NewRect(10, 10, 14.5, 18))
	for _, c := range []struct {
		name  string
		peers []PeerData
		sched *broadcast.Schedule
		path  func(SBWQResult) bool
	}{
		{"covered", cover, w.sched, func(r SBWQResult) bool {
			return r.Outcome == OutcomeVerified && len(r.Known) > 0
		}},
		{"on air, the window known", half, w.sched, func(r SBWQResult) bool {
			return r.Outcome == OutcomeBroadcast && r.KnownRegion == win && len(r.Known) > 0
		}},
		{"on air, a grown region", nil, w.sched, func(r SBWQResult) bool {
			return r.Outcome == OutcomeBroadcast && r.KnownRegion != win && len(r.Known) > len(r.POIs)
		}},
		{"no channel", half, nil, func(r SBWQResult) bool {
			return r.Outcome == OutcomeBroadcast && r.KnownRegion.Empty() && len(r.POIs) > 0
		}},
	} {
		var s Scratch
		query := func() SBWQResult { return SBWQScratch(&s, win.Center(), win, c.peers, SBWQConfig{}, c.sched, 0) }
		if !c.path(query()) {
			t.Fatalf("%s: the fixture takes another path", c.name)
		}
		if allocs := testing.AllocsPerRun(50, func() { query() }); allocs != 0 {
			t.Errorf("%s: warm SBWQScratch allocates %.1f times per run, want 0", c.name, allocs)
		}
	}
}
