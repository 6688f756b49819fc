package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// symPoint applies the i-th of the square's eight symmetries (i in
// [0, 8)): bit 0 negates x, bit 1 negates y, bit 2 then swaps the axes.
// Each is exact in floating point, and every distance NNV compares is a
// function of |Δx| and |Δy| symmetric in the two (DistSq, Hypot), so the
// candidate order, ties included, is the same for every image.
func symPoint(i int, p geom.Point) geom.Point {
	if i&1 != 0 {
		p.X = -p.X
	}
	if i&2 != 0 {
		p.Y = -p.Y
	}
	if i&4 != 0 {
		p.X, p.Y = p.Y, p.X
	}
	return p
}

// symPeers maps every region (normalized again: a negated axis swaps Min
// and Max) and every POI of peers through symmetry i.
func symPeers(i int, peers []PeerData) []PeerData {
	out := make([]PeerData, len(peers))
	for j, pd := range peers {
		a, b := symPoint(i, pd.VR.Min), symPoint(i, pd.VR.Max)
		out[j] = PeerData{VR: geom.NewRect(a.X, a.Y, b.X, b.Y), Tainted: pd.Tainted, Bounded: pd.Bounded}
		for _, p := range pd.POIs {
			p.Pos = symPoint(i, p.Pos)
			out[j].POIs = append(out[j].POIs, p)
		}
	}
	return out
}

// checkNNVSymmetry is the metamorphic contract of NNV and the reach cut on
// one input: under every symmetry T, NNV at T(q) over T(peers) ranks the
// same POIs (at the images of their positions) at the same distances,
// with the same verdicts, taint, surpassing ratios, EdgeDist, InsideMVR
// and counters; Lemma 3.2 probabilities e^(-λu) within 1e-12 plus λ·Δu,
// with Δu = 1e-14·πd² the rounding of the area itself (the integral runs
// along x, so another orientation sums other terms; in a case roughen
// scaled to 1e150, a piece grazing the disk has an area of 1e284 in one
// orientation and 0 in another, and the probability is rounding noise);
// Reach reports the same squared reach, from the untainted peers and from
// every other peer through a mask, and ReachCut keeps the same regions.
func checkNNVSymmetry(t *testing.T, tag string, q geom.Point, peers []PeerData, k int, lambda float64) {
	t.Helper()
	var s, ts Scratch
	want := NNVScratch(&s, q, peers, k, lambda)
	we := slices.Clone(want.Heap.Entries())
	wd2, wok := Reach(&s, q, peers, nil, k)
	wkeep := ReachCut(nil, q, peers, wd2)
	use := make([]bool, len(peers))
	for i := range use {
		use[i] = i%2 == 0
	}
	wu2, wuok := Reach(&s, q, peers, use, k)
	for sym := 1; sym < 8; sym++ {
		tq, tpeers := symPoint(sym, q), symPeers(sym, peers)
		got := NNVScratch(&ts, tq, tpeers, k, lambda)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s, symmetry %d (q=%v k=%d): %s\n peers: %+v\n want: %+v\n got:  %+v", tag, sym, q, k,
				fmt.Sprintf(format, args...), peers, we, got.Heap.Entries())
		}
		if got.InsideMVR != want.InsideMVR || got.EdgeDist != want.EdgeDist || got.Merged != want.Merged ||
			got.Examined != want.Examined || got.Heap.TaintedCount() != want.Heap.TaintedCount() {
			fail("scalars: want %+v got %+v", want, got)
		}
		ge := got.Heap.Entries()
		if len(ge) != len(we) {
			fail("heap holds %d entries, want %d", len(ge), len(we))
		}
		for i := range we {
			w, g := we[i], ge[i]
			if g.POI.ID != w.POI.ID || g.POI.Pos != symPoint(sym, w.POI.Pos) || g.Dist != w.Dist ||
				g.Verified != w.Verified || g.Tainted != w.Tainted || g.Surpassing != w.Surpassing {
				fail("entry %d: want %+v got %+v", i, w, g)
			}
			if tol := 1e-12 + lambda*1e-14*math.Pi*w.Dist*w.Dist; math.Abs(g.Correctness-w.Correctness) > tol {
				fail("entry %d: correctness %v, want %v", i, g.Correctness, w.Correctness)
			}
		}
		d2, ok := Reach(&ts, tq, tpeers, nil, k)
		if d2 != wd2 || ok != wok {
			fail("Reach %v, %v, want %v, %v", d2, ok, wd2, wok)
		}
		if keep := ReachCut(nil, tq, tpeers, d2); !slices.Equal(keep, wkeep) {
			fail("ReachCut keeps %v, want %v", keep, wkeep)
		}
		if d2, ok := Reach(&ts, tq, tpeers, use, k); d2 != wu2 || ok != wuok {
			fail("masked Reach %v, %v, want %v, %v", d2, ok, wu2, wuok)
		}
	}
}

// checkSBWQSymmetry is the metamorphic contract of SBWQ on one window w
// (zero-width and point windows included): under every symmetry T, SBWQ
// at T(q) over T(peers) for T(w), with no channel, reaches the same
// verdict over the same POIs and counters, and its reduced windows are
// pairwise disjoint pieces of T(w) whose total measure — area, or length
// for a segment window, or count for a point window — is the measure w
// itself leaves, to 1e-12 of w's; the covered fraction agrees to 1e-12
// (for a window of zero area it is the verdict, 1 or 0).
func checkSBWQSymmetry(t *testing.T, tag string, q geom.Point, w geom.Rect, peers []PeerData) {
	t.Helper()
	var s, ts Scratch
	want := SBWQScratch(&s, q, w, peers, SBWQConfig{}, nil, 0)
	wantIDs := poiIDs(want.POIs)
	wantMeasure := windowMeasure(w, want.ReducedWindows)
	for sym := 1; sym < 8; sym++ {
		a, b := symPoint(sym, w.Min), symPoint(sym, w.Max)
		tw := geom.NewRect(a.X, a.Y, b.X, b.Y)
		got := SBWQScratch(&ts, symPoint(sym, q), tw, symPeers(sym, peers), SBWQConfig{}, nil, 0)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s, symmetry %d (q=%v w=%v): %s\n peers: %+v", tag, sym, q, w, fmt.Sprintf(format, args...), peers)
		}
		if got.Outcome != want.Outcome || got.Merged != want.Merged || got.Examined != want.Examined ||
			!slices.Equal(poiIDs(got.POIs), wantIDs) {
			fail("outcome %v merged %d examined %d POIs %v, want %v %d %d %v", got.Outcome, got.Merged,
				got.Examined, poiIDs(got.POIs), want.Outcome, want.Merged, want.Examined, wantIDs)
		}
		if math.Abs(got.CoveredFraction-want.CoveredFraction) > 1e-12 {
			fail("covered fraction %v, want %v", got.CoveredFraction, want.CoveredFraction)
		}
		for i, p := range got.ReducedWindows {
			if !tw.ContainsRect(p) {
				fail("reduced window %v outside %v", p, tw)
			}
			for _, o := range got.ReducedWindows[i+1:] {
				if piecesOverlap(tw, p, o) {
					fail("reduced windows %v and %v overlap", p, o)
				}
			}
		}
		if m := windowMeasure(tw, got.ReducedWindows); math.Abs(m-wantMeasure) > 1e-12*windowMeasure(w, []geom.Rect{w}) {
			fail("reduced windows %v measure %v, want %v", got.ReducedWindows, m, wantMeasure)
		}
	}
}

func poiIDs(pois []broadcast.POI) []int64 {
	ids := make([]int64, len(pois))
	for i, p := range pois {
		ids[i] = p.ID
	}
	return ids
}

// windowMeasure sums over pieces the product of their extents on the axes
// where w has extent: area, length along a segment window, or the number
// of pieces of a point window.
func windowMeasure(w geom.Rect, pieces []geom.Rect) float64 {
	total := 0.0
	for _, p := range pieces {
		m := 1.0
		if w.Width() > 0 {
			m *= p.Width()
		}
		if w.Height() > 0 {
			m *= p.Height()
		}
		total += m
	}
	return total
}

// piecesOverlap reports whether two pieces of w share more than a
// boundary: they overlap strictly on every axis where w has extent (on
// the others both lie on w's line).
func piecesOverlap(w, a, b geom.Rect) bool {
	return (w.Width() == 0 || a.Min.X < b.Max.X && b.Min.X < a.Max.X) &&
		(w.Height() == 0 || a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y)
}

// decodeSymmetryCase reads a fuzz input as NNV input on a 16×16 grid:
// byte 0 (mod 13) is the region count and byte 1 a taint mask (bit i
// taints region i); each region takes four bytes (corner coordinates mod
// 16) and lists every POI of the grid inside it — the grid points, POI
// ID 16x+y, shifted to an ID space of their own in a tainted region; the
// remaining bytes pair up into query points on half-integers in
// [-2, 17.5], on region edges and corners, inside and outside.
func decodeSymmetryCase(b []byte) (peers []PeerData, qs []geom.Point) {
	if len(b) < 2 {
		return nil, nil
	}
	n, mask := int(b[0])%13, b[1]
	b = b[2:]
	for i := 0; n > 0 && len(b) >= 4; i, n, b = i+1, n-1, b[4:] {
		pd := PeerData{
			VR:      geom.NewRect(float64(b[0]%16), float64(b[1]%16), float64(b[2]%16), float64(b[3]%16)),
			Tainted: i < 8 && mask&(1<<i) != 0,
		}
		for x := math.Ceil(pd.VR.Min.X); x <= pd.VR.Max.X; x++ {
			for y := math.Ceil(pd.VR.Min.Y); y <= pd.VR.Max.Y; y++ {
				id := int64(16*x + y)
				if pd.Tainted {
					id += 1000
				}
				pd.POIs = append(pd.POIs, poi(id, x, y))
			}
		}
		peers = append(peers, pd)
	}
	for ; len(b) >= 2; b = b[2:] {
		qs = append(qs, geom.Pt(float64(b[0]%40)/2-2, float64(b[1]%40)/2-2))
	}
	return peers, qs
}

// FuzzNNVSymmetry drives checkNNVSymmetry: the decoded grid case at every
// query point for k = 1, 3 and 8, and checkSBWQSymmetry on the window from
// that point to the next one (a point window when they coincide), then
// twenty gridCase draws (IDs at two positions, lies, ties at the k-th
// candidate) roughened as for the reach cut, seeded from the input; rows
// that keep the Bounded promise are flagged at random. The committed corpus
// (testdata/fuzz/FuzzNNVSymmetry) names the degenerate families: shared
// edges, zero-width regions, q on an edge or a corner, tainted regions
// over trusted ones, and point, zero-width and member-edge windows. make
// nnv-identity runs it.
func FuzzNNVSymmetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		h := fnv.New64a()
		h.Write(b)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		peers, qs := decodeSymmetryCase(b)
		markBounded(rng, peers)
		for i, q := range qs {
			for _, k := range [3]int{1, 3, 8} {
				checkNNVSymmetry(t, fmt.Sprintf("decoded query %d", i), q, peers, k, 0.3)
			}
			w := geom.NewRect(q.X, q.Y, qs[(i+1)%len(qs)].X, qs[(i+1)%len(qs)].Y)
			checkSBWQSymmetry(t, fmt.Sprintf("decoded window %d", i), q, w, peers)
		}
		for i := 0; i < 20; i++ {
			q, peers, k := gridCase(rng)
			q = roughen(rng, q, peers)
			markBounded(rng, peers)
			checkNNVSymmetry(t, fmt.Sprintf("grid case %d", i), q, peers, k, 0.05+rng.Float64())
		}
	})
}
