package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// checkReachCut applies the reach cut's contract (DESIGN.md §9.3 "The
// reach cut") at the squared reach Reach selects from the untainted peers
// and — when every ID has one position and one pool, as in an honest
// collection — at the one it selects from every peer, taint ignored (the
// simulator's choice): NNV over the regions ReachCut keeps builds the rows
// NNV over
// every region builds — the same POIs, distances, verdicts, taint and
// surpassing ratios, Lemma 3.2 probabilities within 1e-12, and the same
// EdgeDist whenever it lies within reach. Without k distinct candidates
// Reach reports no cut, and the caller keeps every region.
func checkReachCut(t *testing.T, tag string, q geom.Point, peers []PeerData, k int, lambda float64) {
	t.Helper()
	var s, cs Scratch
	want := NNVScratch(&s, q, peers, k, lambda)
	claims := make([]PeerData, len(peers))
	type home struct {
		pos     geom.Point
		tainted bool
	}
	homes := map[int64]home{}
	honest := true
	for i, pd := range peers {
		claims[i] = PeerData{VR: pd.VR, POIs: pd.POIs}
		for _, p := range pd.POIs {
			h := home{p.Pos, pd.Tainted}
			if at, seen := homes[p.ID]; seen && at != h {
				honest = false
			}
			homes[p.ID] = h
		}
	}
	for v, from := range [2][]PeerData{peers, claims} {
		if v == 1 && !honest {
			continue
		}
		d2, ok := Reach(&cs, q, from, k)
		if n := len(nearestTrusted(&cs, q, from, k)); ok != (n >= k) {
			t.Fatalf("%s (q=%v k=%d): Reach ok=%v with %d distinct candidates", tag, q, k, ok, n)
		}
		if !ok {
			continue
		}
		var kept []PeerData
		for i, in := range ReachCut(nil, q, peers, d2) {
			if in {
				kept = append(kept, peers[i])
			}
		}
		got := NNVScratch(&cs, q, kept, k, lambda)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s (q=%v k=%d d2=%v, %d of %d regions kept): %s\n peers: %+v\n want: %+v\n got:  %+v", tag, q, k, d2,
				len(kept), len(peers), fmt.Sprintf(format, args...), peers, want.Heap.Entries(), got.Heap.Entries())
		}
		we, ge := want.Heap.Entries(), got.Heap.Entries()
		if len(we) != len(ge) || got.InsideMVR != want.InsideMVR || got.Examined != want.Examined {
			fail("%d rows, inside %v; want %d rows, inside %v", len(ge), got.InsideMVR, len(we), want.InsideMVR)
		}
		reach := 0.0
		for i := range we {
			w, g := we[i], ge[i]
			if g.POI != w.POI || g.Dist != w.Dist || g.Verified != w.Verified ||
				g.Tainted != w.Tainted || g.Surpassing != w.Surpassing {
				fail("row %d: want %+v got %+v", i, w, g)
			}
			if math.Abs(g.Correctness-w.Correctness) > 1e-12 {
				fail("row %d: correctness %v, want %v", i, g.Correctness, w.Correctness)
			}
			reach = math.Max(reach, w.Dist)
		}
		if want.EdgeDist <= reach && got.EdgeDist != want.EdgeDist {
			fail("EdgeDist %v, want %v (reach %v)", got.EdgeDist, want.EdgeDist, reach)
		}
	}
}

// roughen makes a gridCase draw harder for the cut: in some regions one
// POI moves one ulp outside the region, past an edge, or a lie moves
// halfway toward q; q may leave the grid, so distances stop being round;
// and now and then the whole case is scaled to where squared distances
// underflow or near overflow.
func roughen(rng *rand.Rand, q geom.Point, peers []PeerData) geom.Point {
	for i := range peers {
		pd := &peers[i]
		if len(pd.POIs) == 0 {
			continue
		}
		p := &pd.POIs[rng.Intn(len(pd.POIs))].Pos
		switch rng.Intn(5) {
		case 0:
			p.X = math.Nextafter(pd.VR.Max.X, math.Inf(1))
		case 1:
			p.Y = math.Nextafter(pd.VR.Min.Y, math.Inf(-1))
		case 2:
			*p = geom.Pt((p.X+q.X)/2, (p.Y+q.Y)/2)
		}
	}
	if rng.Intn(3) == 0 {
		q = q.Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5))
	}
	if rng.Intn(8) == 0 {
		f := [...]float64{1e-160, 1e-150, 1e-140, 1e150}[rng.Intn(4)]
		scale := func(p geom.Point) geom.Point { return geom.Pt(p.X*f, p.Y*f) }
		for i := range peers {
			pd := &peers[i]
			pd.VR = geom.Rect{Min: scale(pd.VR.Min), Max: scale(pd.VR.Max)}
			for j := range pd.POIs {
				pd.POIs[j].Pos = scale(pd.POIs[j].Pos)
			}
		}
		q = scale(q)
	}
	return q
}

// FuzzReachCut drives checkReachCut: each input seeds fifty gridCase draws
// (IDs repeated across regions and at two positions, ties at the k-th
// candidate, tainted pools), roughened, with k now and then beyond the
// distinct candidates. make nnv-identity runs the committed corpus.
func FuzzReachCut(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			q, peers, k := gridCase(rng)
			q = roughen(rng, q, peers)
			if rng.Intn(4) == 0 {
				k += rng.Intn(40)
			}
			checkReachCut(t, fmt.Sprintf("seed %d case %d", seed, i), q, peers, k, 0.05+rng.Float64())
		}
	})
}
