package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// quickWorld derives a deterministic random scenario from a seed.
type quickWorld struct {
	db    []broadcast.POI
	peers []PeerData
	q     geom.Point
	k     int
}

func makeQuickWorld(seed int64) quickWorld {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(80)
	db := make([]broadcast.POI, n)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*20, rng.Float64()*20)}
	}
	var peers []PeerData
	for i := 0; i < rng.Intn(6); i++ {
		cx, cy := rng.Float64()*20, rng.Float64()*20
		vr := geom.NewRect(cx, cy, cx+rng.Float64()*6, cy+rng.Float64()*6)
		pd := PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	return quickWorld{
		db:    db,
		peers: peers,
		q:     geom.Pt(rng.Float64()*20, rng.Float64()*20),
		k:     1 + rng.Intn(8),
	}
}

// Property: the verified prefix of the NNV heap is exactly the true
// top-v ranking of the database (Lemma 3.1), for arbitrary sound peer
// configurations.
func TestQuickNNVVerifiedPrefixIsTruth(t *testing.T) {
	f := func(seed int64) bool {
		w := makeQuickWorld(seed)
		res := NNVScratch(new(Scratch), w.q, w.peers, w.k, 0.3)
		truth := append([]broadcast.POI(nil), w.db...)
		SortByDist(new(Scratch), truth, w.q)
		for rank, e := range res.Heap.Entries() {
			if !e.Verified {
				break
			}
			if e.Dist != truth[rank].Pos.Dist(w.q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: heap entries are sorted ascending, bounded by k, and the
// derived search bounds are consistent (lower <= upper when both exist).
func TestQuickHeapStructure(t *testing.T) {
	f := func(seed int64) bool {
		w := makeQuickWorld(seed)
		res := NNVScratch(new(Scratch), w.q, w.peers, w.k, 0.3)
		h := res.Heap
		if h.Len() > w.k {
			return false
		}
		prev := -1.0
		for _, e := range h.Entries() {
			if e.Dist < prev {
				return false
			}
			prev = e.Dist
		}
		b := h.SearchBounds()
		if b.Upper > 0 && b.Lower > 0 && b.Lower > b.Upper {
			return false
		}
		// Bounds only come from the documented states.
		switch h.State() {
		case StatePartialUnverified, StateEmpty:
			if b.Upper != 0 || b.Lower != 0 {
				return false
			}
		case StateFullUnverified:
			if b.Lower != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SBNN with a broadcast channel always returns exactly the true
// k nearest (unless it legitimately reported an approximate outcome).
func TestQuickSBNNExactness(t *testing.T) {
	f := func(seed int64) bool {
		w := makeQuickWorld(seed)
		sched, err := broadcast.NewSchedule(w.db, broadcast.Config{
			Area: geom.NewRect(0, 0, 20, 20), Order: 4, PacketCapacity: 4,
		})
		if err != nil {
			return false
		}
		res := SBNNScratch(new(Scratch), w.q, w.peers, SBNNConfig{K: w.k, Lambda: 0.3}, sched, seed%977)
		truth := append([]broadcast.POI(nil), w.db...)
		SortByDist(new(Scratch), truth, w.q)
		want := w.k
		if want > len(truth) {
			want = len(truth)
		}
		if len(res.POIs) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if res.POIs[i].Pos.Dist(w.q) != truth[i].Pos.Dist(w.q) {
				return false
			}
		}
		// The gained knowledge is sound: every database POI inside
		// KnownRegion is in Known.
		if !res.KnownRegion.Empty() {
			known := map[int64]bool{}
			for _, p := range res.Known {
				known[p.ID] = true
			}
			// Known lists a POI once.
			if len(known) != len(res.Known) {
				return false
			}
			for _, p := range w.db {
				if res.KnownRegion.Contains(p.Pos) && !known[p.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: SBWQ returns exactly the window contents and its gained
// knowledge is sound.
func TestQuickSBWQExactness(t *testing.T) {
	f := func(seed int64) bool {
		w := makeQuickWorld(seed)
		sched, err := broadcast.NewSchedule(w.db, broadcast.Config{
			Area: geom.NewRect(0, 0, 20, 20), Order: 4, PacketCapacity: 4,
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5bd1))
		cx, cy := rng.Float64()*18, rng.Float64()*18
		win := geom.NewRect(cx, cy, cx+0.5+rng.Float64()*4, cy+0.5+rng.Float64()*4)
		res := SBWQScratch(new(Scratch), w.q, win, w.peers, SBWQConfig{}, sched, seed%977)
		count := 0
		for _, p := range w.db {
			if win.Contains(p.Pos) {
				count++
			}
		}
		if len(res.POIs) != count {
			return false
		}
		if !res.KnownRegion.Empty() {
			if !res.KnownRegion.ContainsRect(win) && res.KnownRegion != win {
				return false
			}
			known := map[int64]bool{}
			for _, p := range res.Known {
				known[p.ID] = true
			}
			// Known lists a POI once.
			if len(known) != len(res.Known) {
				return false
			}
			for _, p := range w.db {
				if res.KnownRegion.Contains(p.Pos) && !known[p.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
