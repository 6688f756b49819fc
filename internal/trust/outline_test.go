package trust

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Tests of the quarantine outline (DESIGN.md §11.5): that the incremental
// outline is the one the ledger defines, and that cutting by it leaves the
// point set cutting by the whole ledger leaves.

// checkOutline requires the engine's outline to be the brute-force one.
func checkOutline(t *testing.T, e *Engine) {
	t.Helper()
	checkOutlineIs(t, e, bruteOutline(e.quar[e.quarHead:]))
}

// checkOutlineIs requires the engine's outline to be want — the same
// rectangles in the same order — with its area and age copied from the
// ledger, the ledger's covered marks to say exactly who is out of it, ages
// to ascend along the ledger, and every live rectangle to be indexed at
// its position.
func checkOutlineIs(t *testing.T, e *Engine, want []geom.Rect) {
	t.Helper()
	live := e.quar[e.quarHead:]
	if len(e.outline) != len(want) {
		t.Fatalf("outline of %d rectangles, brute force %d\n got  %+v\n want %v", len(e.outline), len(want), e.outline, want)
	}
	for k, o := range e.outline {
		i, ok := e.quarIdx[o.r]
		if !ok || !sameBits(o.r, want[k]) {
			t.Fatalf("outline[%d] = %v (live %v), brute force %v", k, o.r, ok, want[k])
		}
		if q := e.quar[i]; q.covered || q.born != o.born || math.Float64bits(o.area) != math.Float64bits(q.r.Area()) {
			t.Fatalf("outline[%d] = %+v disagrees with its ledger entry %+v", k, o, q)
		}
	}
	uncovered := 0
	for i, q := range live {
		if !q.covered {
			uncovered++
		}
		if i > 0 && q.born <= live[i-1].born {
			t.Fatalf("ledger entry %d born %d after one born %d", i, q.born, live[i-1].born)
		}
		if at, ok := e.quarIdx[q.r]; !ok || at != e.quarHead+i {
			t.Fatalf("index of live[%d] = %d (%v), want %d", i, at, ok, e.quarHead+i)
		}
	}
	if uncovered != len(want) || len(e.quarIdx) != len(live) {
		t.Fatalf("%d uncovered ledger entries for an outline of %d; %d index entries for %d live", uncovered, len(want), len(e.quarIdx), len(live))
	}
}

// region is the results of one contribution: what is left of its claim.
type region struct {
	peer    int
	tainted bool
	pieces  []geom.Rect
	pois    []broadcast.POI // kept, in comparePOI order
}

// regionsOf groups results by peer; the screens compared as sets give
// every contribution a peer of its own.
func regionsOf(t *testing.T, results []Result) []region {
	t.Helper()
	var out []region
	for _, r := range results {
		if n := len(out); n == 0 || out[n-1].peer != r.Peer {
			out = append(out, region{peer: r.Peer, tainted: r.Tainted})
		}
		g := &out[len(out)-1]
		if g.tainted != r.Tainted {
			t.Fatalf("peer %d has tainted and untainted pieces", r.Peer)
		}
		g.pieces = append(g.pieces, r.VR)
		g.pois = append(g.pois, r.POIs...)
	}
	for i := range out {
		slices.SortFunc(out[i].pois, comparePOI)
	}
	return out
}

// sameRegions requires two screens of one input to differ in how they
// tile what is left of each contribution and in nothing else: the same
// peers in the same order with the same taint, each side's pieces
// pairwise interior-disjoint and covered by the other side's, and the
// same POIs kept, each as often.
func sameRegions(t *testing.T, got, want []Result) {
	t.Helper()
	g, w := regionsOf(t, got), regionsOf(t, want)
	if len(g) != len(w) {
		t.Fatalf("%d contributions left, reference %d\n got  %+v\n want %+v", len(g), len(w), got, want)
	}
	for i := range g {
		if g[i].peer != w[i].peer || g[i].tainted != w[i].tainted {
			t.Fatalf("contribution %d: peer %d tainted %v, reference %d %v", i, g[i].peer, g[i].tainted, w[i].peer, w[i].tainted)
		}
		for _, side := range [][2][]geom.Rect{{g[i].pieces, w[i].pieces}, {w[i].pieces, g[i].pieces}} {
			for k, piece := range side[0] {
				for _, other := range side[0][:k] {
					if _, strictly := piece.Intersect(other); strictly {
						t.Fatalf("peer %d: pieces %v and %v overlap", g[i].peer, other, piece)
					}
				}
				if rest := geom.AppendSubtractRect(nil, piece, side[1]); len(rest) != 0 {
					t.Fatalf("peer %d: %v of piece %v is not in the other tiling\n got  %v\n want %v", g[i].peer, rest, piece, g[i].pieces, w[i].pieces)
				}
			}
		}
		if !samePOIs(g[i].pois, w[i].pois) {
			t.Fatalf("peer %d keeps %v, reference %v", g[i].peer, g[i].pois, w[i].pois)
		}
	}
}

func sameTiling(got, want []Result) bool {
	return slices.EqualFunc(got, want, func(a, b Result) bool { return sameBits(a.VR, b.VR) })
}

// newSetPair is a diffPair whose reference cuts by the whole ledger.
func newSetPair(seed int64, cfg Config) *diffPair {
	d := newDiffPair(seed, cfg)
	d.sets, d.ref.everyRect = true, true
	return d
}

// quarantine disputes r on both engines.
func (d *diffPair) quarantine(t *testing.T, r geom.Rect) {
	t.Helper()
	var rep, refRep Report
	d.e.quarantineRect(r, &rep)
	d.ref.quarantineRect(r, &refRep)
	if rep != refRep {
		t.Fatalf("quarantining %v reports %+v, reference %+v", r, rep, refRep)
	}
}

// outlineCycles is the horizon of the table below: a rectangle disputed
// after k screens is live for screens k … k+outlineCycles-2.
const outlineCycles = 6

type dispute struct {
	after int // screens run before it
	r     geom.Rect
}

// fillers are n rectangles far from every case's region.
func fillers(after, n int) []dispute {
	out := make([]dispute, n)
	for k := range out {
		out[k] = dispute{after, fuzzFiller(k)}
	}
	return out
}

var (
	nestA = geom.NewRect(0, 0, 8, 8)
	nestB = geom.NewRect(1, 1, 6, 6)
	nestC = geom.NewRect(2, 2, 4, 4)
	inf   = math.Inf(1)
)

// nestClaim covers the nest with a margin: POIs inside C, between the
// rings, on their edges and corners, and outside.
var nestClaim = claimOf(0, geom.NewRect(-1, -1, 9, 9),
	poi(1, 3, 3), poi(2, 2, 3), poi(3, 5, 5), poi(4, 6, 6), poi(5, 1, 4), poi(6, 7, 7),
	poi(7, 8, 0), poi(8, 0, 0), poi(9, 8.5, 8.5), poi(10, 4, 4), poi(11, -1, -1))

// outlineCases script a ledger and screen one claim through its lifetime.
// outline names, for some screens, the outline that screen must run with
// (fillers left out); keeps the IDs the first screen must keep. alike
// marks a case in which the ledger's tiling and the outline's coincide.
var outlineCases = []struct {
	name     string
	disputes []dispute
	claim    Contribution
	screens  int
	outline  map[int][]geom.Rect
	keeps    []int64
	alike    bool
}{
	{name: "nest, the middle expires first",
		disputes: []dispute{{0, nestB}, {1, nestA}, {1, nestC}},
		claim:    nestClaim, screens: 8,
		outline: map[int][]geom.Rect{0: {nestB}, 1: {nestA}, 4: {nestA}, 5: {nestA}, 6: {}}},
	{name: "nest, the middle expires last",
		disputes: []dispute{{0, nestC}, {0, nestA}, {2, nestB}},
		claim:    nestClaim, screens: 9,
		outline: map[int][]geom.Rect{0: {nestA}, 2: {nestA}, 4: {nestA}, 5: {nestB}, 6: {nestB}, 7: {}}},
	{name: "nest, the middle leaves with its container",
		disputes: []dispute{{0, nestB}, {0, nestA}, {2, nestC}},
		claim:    nestClaim, screens: 9,
		outline: map[int][]geom.Rect{0: {nestA}, 4: {nestA}, 5: {nestC}, 6: {nestC}, 7: {}}},
	{name: "container evicted by the cap while its contents live",
		disputes: append([]dispute{{0, nestA}, {0, nestC}, {0, nestB}}, fillers(1, maxQuarRects-2)...),
		claim:    nestClaim, screens: 7,
		outline: map[int][]geom.Rect{0: {nestA}, 1: {nestB}, 4: {nestB}, 5: {}}},
	{name: "contained rectangle refreshed past its container's horizon",
		disputes: []dispute{{0, nestB}, {0, nestA}, {3, nestB}},
		claim:    nestClaim, screens: 10,
		outline: map[int][]geom.Rect{0: {nestA}, 4: {nestA}, 5: {nestB}, 7: {nestB}, 8: {}}},
	// Holes that touch the region take nothing and leave it whole, under
	// the ledger and the outline alike, one inside another included.
	{name: "holes that only touch the region",
		disputes: []dispute{{0, geom.NewRect(4, 1, 5, 2)}, {0, geom.NewRect(4, 0, 6, 3)}, {0, geom.NewRect(1, -2, 2, 0)}},
		claim:    claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 4, 1.5), poi(2, 4, 3), poi(3, 1.5, 0), poi(4, 2, 2)),
		screens:  6, keeps: []int64{1, 2, 3, 4}, alike: true,
		outline: map[int][]geom.Rect{0: {geom.NewRect(4, 0, 6, 3), geom.NewRect(1, -2, 2, 0)}}},
	{name: "a hole equal to the region",
		disputes: []dispute{{0, geom.NewRect(1, 1, 3, 3)}, {0, geom.NewRect(0, 0, 4, 4)}},
		claim:    claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 0, 0), poi(2, 2, 2), poi(3, 4, 2)),
		screens:  6, keeps: []int64{}, alike: true,
		outline: map[int][]geom.Rect{0: {geom.NewRect(0, 0, 4, 4)}}},
	// Unbounded holes all have area +Inf and are ordered by age alone.
	{name: "unbounded holes",
		disputes: []dispute{
			{0, geom.NewRect(-inf, 1, 1, 3)}, {0, geom.NewRect(3, 0, 4, 1)}, {0, geom.NewRect(5, 0, inf, 1)},
			{0, geom.NewRect(-inf, 0, 2, 4)}, {0, geom.NewRect(5, -inf, 5.5, 1)}, {0, geom.NewRect(6, 0, inf, 0.5)}},
		claim: claimOf(0, geom.NewRect(-inf, -1, 7, 5), poi(1, 0, 2), poi(2, 2, 2), poi(3, 3.5, 0.5), poi(4, 6.5, 0.25),
			poi(5, 6.5, 1), poi(6, 5.25, 1), poi(7, 5.25, 0.5), poi(8, 4.5, 4.5)),
		screens: 6, keeps: []int64{2, 5, 6, 8},
		outline: map[int][]geom.Rect{0: {geom.NewRect(5, 0, inf, 1), geom.NewRect(-inf, 0, 2, 4), geom.NewRect(5, -inf, 5.5, 1), geom.NewRect(3, 0, 4, 1)}}},
	// Two abutting holes, each with a hole inside that shares an edge or a
	// corner with it: a POI on the shared edge is inside the union, one on
	// its end points or on an outer edge is on what is left.
	{name: "POIs on hole edges and shared edges of abutting holes",
		disputes: []dispute{{0, geom.NewRect(1, 1, 2, 2)}, {0, geom.NewRect(1, 1, 3, 3)}, {0, geom.NewRect(3, 2, 4, 3)}, {0, geom.NewRect(3, 1, 5, 3)}},
		claim: claimOf(0, geom.NewRect(0, 0, 6, 4), poi(1, 3, 2), poi(2, 3, 1), poi(3, 1, 2), poi(4, 2, 2),
			poi(5, 5, 3), poi(6, 3, 3), poi(7, 4, 2.5), poi(8, 0.5, 0.5), poi(9, 3, 2.5), poi(10, 2, 1)),
		screens: 6, keeps: []int64{2, 3, 5, 6, 8, 10},
		outline: map[int][]geom.Rect{0: {geom.NewRect(1, 1, 3, 3), geom.NewRect(3, 1, 5, 3)}}},
}

// TestOutlineSubtractsTheSameSet is the lemma the outline rests on, as a
// test: cutting a tainted claim by the outline and cutting it by every
// live rectangle in insertion order — the rule before the outline, kept in
// refEngine — leave the same point set and keep the same POIs; only the
// rectangles that tile what is left differ. (Rectangles unbounded both
// ways on one axis are left out: the reference's geom.AppendSubtractRect
// probes interval midpoints, and that midpoint is NaN.)
func TestOutlineSubtractsTheSameSet(t *testing.T) {
	cfg := Config{AuditRate: 1e-12, quarantineCycles: outlineCycles, convictStrikes: 1 << 30}
	for _, tc := range outlineCases {
		t.Run(tc.name, func(t *testing.T) {
			d := newSetPair(17, cfg)
			differed := false
			for s := 0; s < tc.screens; s++ {
				for _, q := range tc.disputes {
					if q.after == s {
						d.quarantine(t, q.r)
					}
				}
				checkOutline(t, d.e)
				got, _ := d.screen(t, s, []Contribution{tc.claim}, noTruth, 0, 2)
				differed = differed || !sameTiling(got, d.want)
				if wantOutline, ok := tc.outline[s]; ok {
					var near []geom.Rect
					for _, o := range d.e.outline {
						if o.r.Min.X < 50 {
							near = append(near, o.r)
						}
					}
					if !slices.Equal(near, wantOutline) {
						t.Fatalf("screen %d ran with the outline %v, want %v", s, near, wantOutline)
					}
				}
				if s == 0 && tc.keeps != nil {
					ids := []int64{}
					for _, r := range got {
						for _, p := range r.POIs {
							ids = append(ids, p.ID)
						}
					}
					if slices.Sort(ids); !slices.Equal(ids, tc.keeps) {
						t.Fatalf("kept POIs %v, want %v", ids, tc.keeps)
					}
				}
			}
			if d.e.QuarantinedRects() != 0 {
				t.Fatalf("%d rectangles outlive the case", d.e.QuarantinedRects())
			}
			if differed == tc.alike {
				t.Fatalf("ledger and outline tiled differently: %v, want %v", differed, !tc.alike)
			}
		})
	}

	// Grid rectangles on one pair of engines that is never reset: ties in
	// area, duplicates (refreshes), nests, touching and abutting holes and
	// half-unbounded ones, disputed directly and by the claims' conflicts.
	t.Run("random grid", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		d := newSetPair(19, Config{AuditRate: 1e-12, quarantineCycles: 12, convictStrikes: 1 << 30})
		gridRect := func() geom.Rect {
			x, y := float64(rng.Intn(8)), float64(rng.Intn(8))
			r := geom.NewRect(x, y, x+1+float64(rng.Intn(4)), y+1+float64(rng.Intn(4)))
			switch rng.Intn(24) {
			case 0:
				r.Min.X = -inf
			case 1:
				r.Max.X = inf
			case 2:
				r.Max.Y = inf
			}
			return r
		}
		differed, covered, conflicts := 0, 0, 0
		for s := 0; s < 20000; s++ {
			for n := rng.Intn(4); n > 0; n-- {
				d.quarantine(t, gridRect())
				checkOutline(t, d.e)
			}
			var contribs []Contribution
			for peer := 0; peer < 1+rng.Intn(3); peer++ {
				x, y := float64(rng.Intn(6)), float64(rng.Intn(6))
				c := claimOf(peer, geom.NewRect(x, y, x+2+float64(rng.Intn(4)), y+2+float64(rng.Intn(4))))
				// The half-integer lattice inside the region, now and then
				// with a point missing: a neighbour that lists it disagrees.
				for px := x; px <= c.VR.Max.X; px += 0.5 {
					for py := y; py <= c.VR.Max.Y; py += 0.5 {
						if rng.Intn(100) != 0 {
							c.POIs = append(c.POIs, poi(int64(64*px+2*py), px, py))
						}
					}
				}
				if rng.Intn(16) == 0 {
					c.VR.Min.X = -inf
				}
				contribs = append(contribs, c)
			}
			got, rep := d.screen(t, s, contribs, noTruth, 0, 3)
			if !sameTiling(got, d.want) {
				differed++
			}
			conflicts += rep.Conflicts
			covered += d.e.QuarantinedRects() - len(d.e.outline)
		}
		if differed < 2000 || covered < 20000 || conflicts < 200 {
			t.Fatalf("run exercised too little: %d screens tiled differently, %d covered rectangle-screens, %d conflicts", differed, covered, conflicts)
		}
	})
}

// fuzzRect decodes a rectangle on the 8×8 integer grid (width and height
// up to 8, so nests and equal areas are the rule), at half scale when a
// bit says so, with one bound unbounded when two others do.
func fuzzRect(a, b byte) geom.Rect {
	x, y := float64(a&7), float64(a>>3&7)
	r := geom.NewRect(x, y, x+1+float64(b&7), y+1+float64(b>>3&7))
	if b>>6&1 != 0 {
		r = geom.NewRect(r.Min.X/2, r.Min.Y/2, r.Max.X/2, r.Max.Y/2)
	}
	switch a >> 6 {
	case 2:
		r.Min.X = math.Inf(-1)
	case 3:
		r.Max.Y = math.Inf(1)
	}
	return r
}

// fuzzFiller is the k-th of an endless supply of distinct rectangles away
// from the grid, in nests of three whose members arrive in varying order.
func fuzzFiller(k int) geom.Rect {
	x, inner := 100+4*float64(k/3), float64((k+k/3)%3)/2
	return geom.NewRect(x+inner, inner, x+3-inner, 3-inner)
}

// FuzzOutline holds the incremental outline to the brute-force one under
// an op stream of three bytes each — dispute a grid rectangle (new, or a
// refresh when it is live), refresh the n-th live one, advance seq through
// a decay, overflow the cap with fillers — after every op: the same
// rectangles in the same order, covered marks and quarIdx consistent.
func FuzzOutline(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(1, Config{AuditRate: 0.5, quarantineCycles: 8}, nil)
		var rep Report
		filler, overflows := 0, 0
		for ops := 0; len(data) >= 3 && ops < 48; ops++ {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch live := e.QuarantinedRects(); op % 8 {
			default:
				e.quarantineRect(fuzzRect(a, b), &rep)
			case 4:
				if live > 0 {
					e.quarantineRect(e.quar[e.quarHead+int(a)%live].r, &rep)
				}
			case 5, 6:
				for n := 1 + a%4; n > 0; n-- {
					e.seq++
					e.decayQuarantine()
				}
			case 7:
				if overflows++; overflows > 2 {
					continue // each check past the cap compares a million pairs
				}
				for n := maxQuarRects - live + 1 + int(a%8); n > 0; n-- {
					e.quarantineRect(fuzzFiller(filler), &rep)
					filler++
				}
			}
			checkOutline(t, e)
		}
	})
}
