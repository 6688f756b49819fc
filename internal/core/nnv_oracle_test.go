package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// refNNV is the test oracle for NNVScratch: the body as it stood before
// verification became query-local, kept verbatim — every peer POI copied
// into one buffer per pool, the whole buffer sorted and de-duplicated, the
// whole merged verified region decomposed, and one loop that verifies and
// prices candidates until the heap is full. The clearance is the whole
// union's boundary distance (RectUnion.BoundaryDist, the kernel framed by
// the union's bounding box rather than by the reach square), and the
// unverified area is the retired RectUnion.UnverifiedArea inline: the
// disk less its part in the union, clamped at zero.
// TestNNVMatchesReference drives it and the production function over the
// same inputs.
func refNNV(s *Scratch, mvr *geom.RectUnion, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	mvr.Reset()
	cands := s.candidates[:0]
	taints := s.tainted[:0]
	merged := 0
	for _, p := range peers {
		if p.Tainted {
			// Untrusted: the VR must not strengthen Lemma 3.1, but the
			// POIs may still compete as probabilistic candidates.
			taints = append(taints, p.POIs...)
			continue
		}
		mvr.Add(p.VR)
		merged++
		cands = append(cands, p.POIs...)
	}
	sortCandidates(s, cands, q)
	cands = dedupSortedCandidates(cands)
	s.candidates = cands
	sortCandidates(s, taints, q)
	taints = dedupSortedCandidates(taints)
	s.tainted = taints

	s.heap.Reset(k)
	res := NNVResult{
		Heap:              &s.heap,
		MVR:               mvr,
		Merged:            merged,
		TaintedCandidates: len(taints),
	}
	if mvr.Contains(q) {
		res.EdgeDist = mvr.BoundaryDist(q)
		res.InsideMVR = true
	}

	// Merge-walk the two sorted pools in global (distance², ID) order.
	// With no tainted peers this reduces exactly to a walk of cands —
	// the seed loop, bit for bit.
	lastVerified := 0.0
	hasVerified := false
	i, j := 0, 0
	for (i < len(cands) || j < len(taints)) && !res.Heap.Full() {
		pickTainted := i >= len(cands) ||
			(j < len(taints) && candBefore(taints[j], cands[i], q))
		var poi broadcast.POI
		if pickTainted {
			poi = taints[j]
			j++
		} else {
			poi = cands[i]
			i++
		}
		res.Examined++
		d := poi.Pos.Dist(q)
		e := Entry{POI: poi, Dist: d, Tainted: pickTainted}
		if !pickTainted && res.InsideMVR && d <= res.EdgeDist {
			e.Verified = true
			e.Correctness = 1
			lastVerified = d
			hasVerified = true
		} else {
			// Unverified (or tainted — untrusted candidates can never be
			// verified regardless of geometry): the candidate's
			// unverified region is the part of its distance disk not
			// covered by the (trusted) MVR.
			u := math.Max(0, math.Pi*d*d-mvr.IntersectCircleArea(q, d))
			e.Correctness = CorrectnessProbability(lambda, u)
			if hasVerified && lastVerified > 0 {
				e.Surpassing = d / lastVerified
			}
		}
		res.Heap.add(e)
	}
	return res
}

// checkNNVAgainstReference runs one input through both and applies the
// query-local contract (DESIGN.md §9.3): the heap rows and the counters
// are equal; Lemma 3.2 probabilities agree to 1e-12 relative (NNV sums
// the disk's area in the uncovered pieces where the reference takes the
// disk less its area in the union, so the sums associate differently);
// EdgeDist is the reference's whenever that lies within
// reach of the heap, and beyond reach otherwise.
func checkNNVAgainstReference(t *testing.T, tag string, q geom.Point, peers []PeerData, k int, lambda float64) {
	t.Helper()
	var rs, s Scratch
	want := refNNV(&rs, new(geom.RectUnion), q, peers, k, lambda)
	got := NNVScratch(&s, q, peers, k, lambda)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (q=%v k=%d): %s\n peers: %+v\n want: %+v\n got:  %+v", tag, q, k,
			fmt.Sprintf(format, args...), peers, want.Heap.Entries(), got.Heap.Entries())
	}
	if got.InsideMVR != want.InsideMVR || got.Merged != want.Merged ||
		got.Examined != want.Examined || got.TaintedCandidates != want.TaintedCandidates {
		fail("scalars: want %+v got %+v", want, got)
	}
	we, ge := want.Heap.Entries(), got.Heap.Entries()
	if len(we) != len(ge) {
		fail("heap holds %d entries, want %d", len(ge), len(we))
	}
	reach := 0.0
	for i := range we {
		w, g := we[i], ge[i]
		if g.POI != w.POI || g.Dist != w.Dist || g.Verified != w.Verified ||
			g.Tainted != w.Tainted || g.Surpassing != w.Surpassing {
			fail("entry %d: want %+v got %+v", i, w, g)
		}
		if math.Abs(g.Correctness-w.Correctness) > 1e-12*w.Correctness {
			fail("entry %d: correctness %v, want %v", i, g.Correctness, w.Correctness)
		}
		reach = math.Max(reach, w.Dist)
	}
	if want.EdgeDist <= reach {
		if got.EdgeDist != want.EdgeDist {
			fail("EdgeDist %v, want %v (reach %v)", got.EdgeDist, want.EdgeDist, reach)
		}
	} else if !(got.EdgeDist > reach && got.EdgeDist <= want.EdgeDist) {
		fail("EdgeDist %v, want a bound in (%v, %v]", got.EdgeDist, reach, want.EdgeDist)
	}
	if !slices.Equal(got.MVR.Rects(), want.MVR.Rects()) {
		fail("MVR members %v, want %v", got.MVR.Rects(), want.MVR.Rects())
	}
}

// gridCase draws one differential input on the integer grid of a 12×12
// area, where coincidences are the norm: POIs share positions and sit on
// region edges and corners, distances tie exactly, regions abut, nest and
// repeat. Tainted regions draw their POIs from an ID space of their own
// (the caller contract of PeerData.Tainted), a few regions lie about one
// POI's position, and now and then two IDs share a position.
func gridCase(rng *rand.Rand) (geom.Point, []PeerData, int) {
	const side = 12
	nDB := 8 + rng.Intn(40)
	db := make([]broadcast.POI, nDB)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(float64(rng.Intn(side+1)), float64(rng.Intn(side+1)))}
		if i > 0 && rng.Intn(10) == 0 {
			db[i].Pos = db[i-1].Pos // two IDs at one position
		}
	}
	region := func() geom.Rect {
		x, y := float64(rng.Intn(side)), float64(rng.Intn(side))
		r := geom.NewRect(x, y, x+float64(1+rng.Intn(6)), y+float64(1+rng.Intn(6)))
		if rng.Intn(16) == 0 {
			r.Max.X = r.Min.X // zero-area: never merged, POIs still compete
		}
		return r
	}
	var peers []PeerData
	taintMode := rng.Intn(5) // 0: none tainted, 4: all tainted, else mixed
	for n := rng.Intn(11); n > 0; n-- {
		pd := PeerData{VR: region()}
		if len(peers) > 0 && rng.Intn(6) == 0 {
			pd.VR = peers[rng.Intn(len(peers))].VR // a region shared verbatim
		}
		pd.Tainted = taintMode == 4 || (taintMode > 0 && rng.Intn(3) == 0)
		for _, p := range db {
			if !pd.VR.Contains(p.Pos) {
				continue
			}
			if pd.Tainted && rng.Intn(8) != 0 {
				p.ID += 1000 // mostly disjoint from the trusted IDs, not always
			}
			pd.POIs = append(pd.POIs, p)
		}
		if len(pd.POIs) > 0 && rng.Intn(8) == 0 {
			// An unscreened lie: one ID reported at a second position.
			j := rng.Intn(len(pd.POIs))
			pd.POIs[j].Pos = geom.Pt(float64(rng.Intn(side+1)), float64(rng.Intn(side+1)))
		}
		if rng.Intn(12) == 0 {
			pd.POIs = nil // an empty reply
		}
		peers = append(peers, pd)
	}
	q := geom.Pt(float64(rng.Intn(2*side+5))/2-1, float64(rng.Intn(2*side+5))/2-1)
	if len(peers) > 0 && rng.Intn(4) == 0 {
		// On a region corner or at a candidate: clearance 0, reach 0.
		pd := peers[rng.Intn(len(peers))]
		q = pd.VR.Corners()[rng.Intn(4)]
		if len(pd.POIs) > 0 && rng.Intn(2) == 0 {
			q = pd.POIs[rng.Intn(len(pd.POIs))].Pos
		}
	}
	return q, peers, 1 + rng.Intn(9)
}

// TestNNVMatchesReference is the differential gate of the query-local
// NNV: seeded grid cases plus the hand-built adversarial ones below.
func TestNNVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 6000; i++ {
		q, peers, k := gridCase(rng)
		checkNNVAgainstReference(t, fmt.Sprintf("grid case %d", i), q, peers, k, 0.05+rng.Float64())
	}

	// Free-form coordinates: the fixture of the perf harness (64 regions,
	// one in seven tainted) probed across and beyond its MVR.
	_, peers, _ := poolWorkload()
	for i := 0; i < 300; i++ {
		q := geom.Pt(8+rng.Float64()*20, 8+rng.Float64()*20)
		checkNNVAgainstReference(t, fmt.Sprintf("pool case %d", i), q, peers, 1+rng.Intn(12), 0.5)
	}

	box := geom.NewRect(0, 0, 10, 10)
	many := func(n int, pd PeerData) []PeerData {
		out := make([]PeerData, n)
		for i := range out {
			out[i] = pd
			out[i].VR = box.Expand(-float64(i) / 8) // nested, all around (5,5)
		}
		return out
	}
	ring := []broadcast.POI{poi(1, 5, 8), poi(2, 8, 5), poi(3, 5, 2), poi(4, 2, 5), poi(5, 5, 5.5)}
	cases := []struct {
		name  string
		q     geom.Point
		peers []PeerData
		ks    []int
	}{
		{"duplicated across many regions", geom.Pt(5, 5),
			many(24, PeerData{POIs: []broadcast.POI{poi(7, 5, 6), poi(8, 6, 5), poi(9, 4, 4)}}), []int{1, 2, 3, 4}},
		{"ties exactly at the k-th candidate", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: ring}, {VR: geom.NewRect(4, 4, 9, 9), POIs: ring[:2]}}, []int{1, 2, 3, 4, 5, 6}},
		{"two IDs at one position", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(2, 6, 6), poi(1, 6, 6), poi(3, 6, 6), poi(4, 1, 1)}}}, []int{1, 2, 3, 4}},
		{"one ID at two positions, adjacent in the order", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 5, 9)}},
				{VR: geom.NewRect(3, 3, 8, 8), POIs: []broadcast.POI{poi(1, 5, 7), poi(1, 5, 6)}}}, []int{1, 2, 3}},
		{"one ID at two positions, another ID between", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 5, 6.5)}},
				{VR: geom.NewRect(3, 3, 8, 8), POIs: []broadcast.POI{poi(1, 5, 7), poi(3, 5, 9)}}}, []int{1, 2, 3, 4}},
		{"one ID at mirrored positions (equal distance)", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 9, 9)}},
				{VR: geom.NewRect(3, 3, 8, 8), POIs: []broadcast.POI{poi(1, 5, 4), poi(1, 6, 5)}}}, []int{1, 2, 3}},
		{"q on a region edge", geom.Pt(10, 5), []PeerData{{VR: box, POIs: ring}}, []int{1, 3}},
		{"q on a shared edge", geom.Pt(10, 5),
			[]PeerData{{VR: box, POIs: ring}, {VR: geom.NewRect(10, 0, 20, 10), POIs: []broadcast.POI{poi(9, 12, 5)}}}, []int{1, 3, 6}},
		{"q on a region corner", geom.Pt(10, 10), []PeerData{{VR: box, POIs: ring}}, []int{1, 3}},
		{"q outside the MVR", geom.Pt(14, 5), []PeerData{{VR: box, POIs: ring}}, []int{1, 3}},
		{"k beyond the distinct candidates", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: ring}, {VR: box, POIs: ring}}, []int{5, 6, 50}},
		{"no peers", geom.Pt(5, 5), nil, []int{1, 3}},
		{"peers without POIs", geom.Pt(5, 5), []PeerData{{VR: box}, {VR: box, Tainted: true}}, []int{1, 3}},
		{"all peers tainted", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: ring, Tainted: true}, {VR: box, POIs: ring[1:], Tainted: true}}, []int{1, 3, 8}},
		{"tainted pool supplies the k-th entry", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 5, 6), poi(2, 5, 9)}},
				{VR: box, POIs: []broadcast.POI{poi(11, 5, 7), poi(12, 5, 7.5), poi(13, 1, 1)}, Tainted: true}}, []int{1, 2, 3, 4, 5}},
		{"tainted tie with a trusted candidate", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(5, 5, 7)}},
				{VR: box, POIs: []broadcast.POI{poi(4, 7, 5), poi(6, 3, 5)}, Tainted: true}}, []int{1, 2, 3}},
		{"reach zero: the candidate sits on q", geom.Pt(5, 5),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 5, 5), poi(2, 6, 5)}}}, []int{1}},
		{"reach zero on the boundary", geom.Pt(0, 0),
			[]PeerData{{VR: box, POIs: []broadcast.POI{poi(1, 0, 0)}}}, []int{1, 2}},
		{"reach under an ulp of q.X, q on a shared edge", geom.Pt(1e6, 5),
			[]PeerData{{VR: geom.NewRect(1e6-1, 0, 1e6, 10), POIs: []broadcast.POI{poi(1, 1e6, 5+1e-12), poi(2, 1e6, 5)}},
				{VR: geom.NewRect(1e6, 0, 1e6+1, 10)}}, []int{1, 2, 3}},
		{"reach under an ulp of q.X, q on an outer edge", geom.Pt(1e6, 5),
			[]PeerData{{VR: geom.NewRect(1e6-1, 0, 1e6, 10), POIs: []broadcast.POI{poi(1, 1e6, 5+1e-12), poi(2, 1e6, 5)}}}, []int{1, 2, 3}},
		{"reach under an ulp of q.X, q on a corner", geom.Pt(1e6, 10),
			[]PeerData{{VR: geom.NewRect(1e6-1, 0, 1e6, 10), POIs: []broadcast.POI{poi(1, 1e6, 10-1e-12), poi(2, 1e6, 10)}}}, []int{1, 2, 3}},
		{"far regions beyond reach", geom.Pt(5, 5),
			[]PeerData{{VR: geom.NewRect(4, 4, 6, 6), POIs: []broadcast.POI{poi(1, 5, 5.5)}},
				{VR: geom.NewRect(6, 4, 9, 6), POIs: []broadcast.POI{poi(2, 8, 5)}},
				{VR: geom.NewRect(20, 20, 30, 30), POIs: []broadcast.POI{poi(3, 25, 25)}}}, []int{1, 2, 3}},
	}
	for _, c := range cases {
		for _, k := range c.ks {
			checkNNVAgainstReference(t, c.name, c.q, c.peers, k, 0.3)
		}
	}
}
