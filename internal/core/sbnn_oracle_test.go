package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// refSBNN is the test oracle for SBNNScratch's on-air merge: the body as
// it stood before the merge selected its answer — the whole merged
// download sorted and de-duplicated, the answer its head — with two
// changes that make the channel the authority on the IDs it sent: heap
// rows whose ID the download holds are dropped before the sort, and Known
// is the sorted list cut to the search square before it is de-duplicated.
// It returns, besides the result, the merged list as it stood before the
// heap rows were dropped, so a test can tell which cases it drew.
func refSBNN(s *Scratch, q geom.Point, peers []PeerData, cfg SBNNConfig, sched *broadcast.Schedule, now int64) (SBNNResult, []broadcast.POI) {
	nnv := NNVScratch(s, q, peers, cfg.K, cfg.Lambda)
	res := SBNNResult{Heap: nnv.Heap, MVR: nnv.MVR, Merged: nnv.Merged, Examined: nnv.Examined}
	if nnv.Heap.VerifiedCount() >= cfg.K && cfg.K > 0 ||
		cfg.AcceptApproximate && nnv.Heap.Full() && nnv.Heap.MinUnverifiedCorrectness() >= cfg.MinCorrectness {
		return res, nil // not the on-air merge: the caller skips it
	}
	res.Outcome = OutcomeBroadcast
	res.Bounds = nnv.Heap.SearchBounds()
	onAir, radius, acc := sched.KNN(&s.onAir, q, cfg.K, now, res.Bounds)
	res.Access = acc

	merged := append(s.poiBuf[:0], onAir...)
	raw := nnv.Heap.AppendTrustedPOIs(slices.Clone(merged))
	for _, p := range raw[len(onAir):] {
		if !slices.ContainsFunc(onAir, func(o broadcast.POI) bool { return o.ID == p.ID }) {
			merged = append(merged, p)
		}
	}
	sortCandidates(s, merged, q)
	res.KnownRegion = geom.RectAround(q, radius)
	res.Known = dedupSortedCandidates(appendInside(nil, merged, res.KnownRegion))
	merged = dedupSortedCandidates(merged)
	s.poiBuf = merged

	if len(merged) > cfg.K {
		merged = merged[:cfg.K]
	}
	res.POIs = merged
	return res, raw
}

// samePOIs reports whether a and b hold the same POIs in the same order,
// bit for bit.
func samePOIs(a, b []broadcast.POI) bool {
	return slices.EqualFunc(a, b, func(x, y broadcast.POI) bool {
		return x.ID == y.ID && sameBits(x.Pos, y.Pos)
	})
}

func sameBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// mergeCase draws one on-air merge on the integer grid of a side×side
// area, where distances tie and POIs share positions: a database of 3 to
// 60 POIs, a broadcast schedule of random geometry over it, sound peers
// that now and then list a POI at a second (stale or lying) position,
// tainted peers with IDs of their own, and k up to past the database. It
// returns the database's size last.
func mergeCase(t *testing.T, rng *rand.Rand) (geom.Point, []PeerData, SBNNConfig, *broadcast.Schedule, int64, int) {
	t.Helper()
	side := 4 + rng.Intn(12)
	grid := func() geom.Point { return geom.Pt(float64(rng.Intn(side+1)), float64(rng.Intn(side+1))) }
	db := make([]broadcast.POI, 3+rng.Intn(58))
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: grid()}
		if i > 0 && rng.Intn(8) == 0 {
			db[i].Pos = db[i-1].Pos // two IDs at one position
		}
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{
		Area:           geom.NewRect(0, 0, float64(side), float64(side)),
		Order:          1 + rng.Intn(4),
		PacketCapacity: 1 + rng.Intn(6),
		M:              1 + rng.Intn(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	var peers []PeerData
	for n := rng.Intn(6); n > 0; n-- {
		x, y := float64(rng.Intn(side)), float64(rng.Intn(side))
		pd := PeerData{VR: geom.NewRect(x, y, x+float64(1+rng.Intn(side)), y+float64(1+rng.Intn(side))), Tainted: rng.Intn(4) == 0}
		for _, p := range db {
			if !pd.VR.Contains(p.Pos) {
				continue
			}
			if pd.Tainted {
				p.ID += 1000
			} else if rng.Intn(6) == 0 {
				p.Pos = grid() // a moved POI's stale copy, or a lie
			}
			pd.POIs = append(pd.POIs, p)
		}
		peers = append(peers, pd)
	}
	q := geom.Pt(float64(rng.Intn(2*side+1))/2, float64(rng.Intn(2*side+1))/2)
	k := 1 + rng.Intn(8)
	if rng.Intn(10) == 0 {
		k = len(db) + 1 + rng.Intn(3)
	}
	return q, peers, SBNNConfig{K: k, Lambda: 0.05 + rng.Float64()}, sched, rng.Int63n(1000), len(db)
}

// mergeDraw records which cases one on-air merge drew.
type mergeDraw struct {
	sameSpot, adjacent, betweenIn, betweenOut, heapTwins, ties, tainted, upper, noUpper, pastFile bool
}

// classify reads the cases off the merged list as the oracle sorted it.
func classify(raw []broadcast.POI, q geom.Point, res SBNNResult, dbSize, k int) mergeDraw {
	d := mergeDraw{
		tainted:  res.Heap.TaintedCount() > 0,
		upper:    res.Bounds.Upper > 0,
		noUpper:  res.Bounds.Upper == 0,
		pastFile: k > dbSize,
	}
	order := slices.Clone(raw)
	slices.SortStableFunc(order, func(a, b broadcast.POI) int {
		switch {
		case candBefore(a, b, q):
			return -1
		case candBefore(b, a, q):
			return 1
		}
		return 0
	})
	heap := raw[len(raw)-(res.Heap.Len()-res.Heap.TaintedCount()):]
	for i, p := range heap {
		for _, o := range heap[i+1:] {
			d.heapTwins = d.heapTwins || o.ID == p.ID && !holdsID(raw[:len(raw)-len(heap)], p.ID)
		}
	}
	for i := range order {
		if i > 0 && order[i].ID != order[i-1].ID && order[i].Pos.DistSq(q) == order[i-1].Pos.DistSq(q) {
			d.ties = true
		}
		for j := i + 1; j < len(order); j++ {
			if order[j].ID != order[i].ID {
				continue
			}
			if sameBits(order[j].Pos, order[i].Pos) {
				d.sameSpot = true
				continue
			}
			if j == i+1 {
				d.adjacent = true
			}
			for _, m := range order[i+1 : j] {
				if res.KnownRegion.Contains(m.Pos) {
					d.betweenIn = true
				} else {
					d.betweenOut = true
				}
			}
		}
	}
	return d
}

// TestSBNNMergeMatchesReference is the differential gate of the on-air
// merge: over random schedules, databases, peers and k, SBNNScratch's
// POIs, Known and KnownRegion equal refSBNN's bit for bit, on one reused
// scratch. Every kind of copy the filter and the de-duplication meet must
// be drawn: copies of one POI at one position, at two positions with
// nothing between them in the order, and with members between them inside
// and outside the square; two heap rows sharing an ID the download lacks,
// which the filter leaves to the de-duplication; distance ties;
// tainted heap rows; the upper search bound set and unset; k past the
// database.
func TestSBNNMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var s Scratch
	var seen mergeDraw
	onAir := 0
	for i := 0; i < 4000; i++ {
		q, peers, cfg, sched, now, dbSize := mergeCase(t, rng)
		var rs Scratch
		want, raw := refSBNN(&rs, q, peers, cfg, sched, now)
		got := SBNNScratch(&s, q, peers, cfg, sched, now)
		if want.Outcome != OutcomeBroadcast {
			continue
		}
		onAir++
		if got.Outcome != want.Outcome || got.Bounds != want.Bounds || got.Access != want.Access ||
			!samePOIs(got.POIs, want.POIs) || !samePOIs(got.Known, want.Known) ||
			!sameBits(got.KnownRegion.Min, want.KnownRegion.Min) || !sameBits(got.KnownRegion.Max, want.KnownRegion.Max) {
			t.Fatalf("case %d (q=%v k=%d): merge differs from the reference\n merged: %v\n peers: %+v\n want: POIs %v Known %v in %v\n got:  POIs %v Known %v in %v",
				i, q, cfg.K, raw, peers, want.POIs, want.Known, want.KnownRegion, got.POIs, got.Known, got.KnownRegion)
		}
		d := classify(raw, q, want, dbSize, cfg.K)
		seen.sameSpot = seen.sameSpot || d.sameSpot
		seen.adjacent = seen.adjacent || d.adjacent
		seen.betweenIn = seen.betweenIn || d.betweenIn
		seen.betweenOut = seen.betweenOut || d.betweenOut
		seen.heapTwins = seen.heapTwins || d.heapTwins
		seen.ties = seen.ties || d.ties
		seen.tainted = seen.tainted || d.tainted
		seen.upper = seen.upper || d.upper
		seen.noUpper = seen.noUpper || d.noUpper
		seen.pastFile = seen.pastFile || d.pastFile
	}
	if all := (mergeDraw{true, true, true, true, true, true, true, true, true, true}); seen != all {
		t.Fatalf("the %d on-air merges missed a case: %+v", onAir, seen)
	}
	t.Logf("%d on-air merges, every case drawn", onAir)
}

// TestKnownInsideTable pins the merge's Known on hand-built merged lists —
// the channel members first, then the heap rows from index sent on — cut
// to the square of half-side half around the origin: dropSent, then
// knownInside. It holds each against the reference's Known, the filtered
// list sorted whole, cut to the square and de-duplicated.
func TestKnownInsideTable(t *testing.T) {
	q := geom.Pt(0, 0)
	cases := []struct {
		name   string
		merged []broadcast.POI
		sent   int
		half   float64
		want   []broadcast.POI
	}{
		{"no copies, a distance tie", []broadcast.POI{poi(1, 1, 0), poi(2, 2, 0), poi(3, 0, 1)}, 2, 10,
			[]broadcast.POI{poi(1, 1, 0), poi(3, 0, 1), poi(2, 2, 0)}},
		{"one position: the heap's copy drops", []broadcast.POI{poi(1, 1, 0), poi(2, 2, 0), poi(1, 1, 0)}, 2, 10,
			[]broadcast.POI{poi(1, 1, 0), poi(2, 2, 0)}},
		{"two positions: the channel's copy stays, the nearer heap copy drops", []broadcast.POI{poi(1, 3, 0), poi(2, 4, 0), poi(1, 1, 0)}, 2, 10,
			[]broadcast.POI{poi(1, 3, 0), poi(2, 4, 0)}},
		{"two heap positions, adjacent: the farther drops", []broadcast.POI{poi(2, 4, 0), poi(1, 3, 0), poi(1, 1, 0)}, 1, 10,
			[]broadcast.POI{poi(1, 1, 0), poi(2, 4, 0)}},
		{"two heap positions, another ID between: both stay", []broadcast.POI{poi(2, 2, 0), poi(1, 3, 0), poi(1, 1, 0)}, 1, 10,
			[]broadcast.POI{poi(1, 1, 0), poi(2, 2, 0), poi(1, 3, 0)}},
		{"two heap positions at one distance: the ID's first copy stays", []broadcast.POI{poi(1, 2, 0), poi(5, 0, 2), poi(5, 0, -2)}, 1, 10,
			[]broadcast.POI{poi(1, 2, 0), poi(5, 0, 2)}},
		{"three copies, two of them heap rows: the channel's stays", []broadcast.POI{poi(1, 2, 0), poi(1, 1, 0), poi(2, 1.5, 0), poi(1, 2, 0)}, 1, 10,
			[]broadcast.POI{poi(2, 1.5, 0), poi(1, 2, 0)}},
		{"a member outside the square between two heap copies inside: the later drops", []broadcast.POI{poi(3, 2.1, 0), poi(1, 1.5, 1.5), poi(1, 1, 1)}, 1, 2,
			[]broadcast.POI{poi(1, 1, 1)}},
		{"the channel's copy inside stays after its heap twin outside", []broadcast.POI{poi(1, 1.9, 1.9), poi(2, 0.5, 0), poi(1, 2.5, 0)}, 2, 2,
			[]broadcast.POI{poi(2, 0.5, 0), poi(1, 1.9, 1.9)}},
		{"a heap copy inside stays after its heap twin outside", []broadcast.POI{poi(2, 0.5, 0), poi(1, 1.9, 1.9), poi(1, 2.5, 0)}, 1, 2,
			[]broadcast.POI{poi(2, 0.5, 0), poi(1, 1.9, 1.9)}},
	}
	for _, c := range cases {
		var s Scratch
		r := geom.RectAround(q, c.half)
		got := knownInside(&s, dropSent(slices.Clone(c.merged), c.sent), q, r)
		all := dropSent(slices.Clone(c.merged), c.sent)
		sortCandidates(&s, all, q)
		if want := dedupSortedCandidates(appendInside(nil, all, r)); !samePOIs(want, c.want) {
			t.Fatalf("%s: the reference keeps %v, the table says %v", c.name, want, c.want)
		}
		if !samePOIs(got, c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
		}
	}
}
