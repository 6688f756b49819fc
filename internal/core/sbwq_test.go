package core

import (
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

func windowTruth(db []broadcast.POI, w geom.Rect) map[int64]bool {
	out := map[int64]bool{}
	for _, p := range db {
		if w.Contains(p.Pos) {
			out[p.ID] = true
		}
	}
	return out
}

// TestSBWQFigure9FullCoverage reproduces the WQ1 case of Figure 9: the
// window lies inside the merged verified region and is answered locally.
func TestSBWQFigure9FullCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := newTestWorld(t, rng, 200)
	vr1 := geom.NewRect(4, 4, 18, 18)
	vr2 := geom.NewRect(14, 4, 28, 18)
	mk := func(vr geom.Rect) PeerData {
		pd := PeerData{VR: vr}
		for _, p := range w.db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		return pd
	}
	peers := []PeerData{mk(vr1), mk(vr2)}
	// Window spanning both VRs but inside their union.
	win := geom.NewRect(10, 6, 24, 16)
	res := SBWQScratch(new(Scratch), geom.Pt(16, 10), win, peers, SBWQConfig{}, w.sched, 0)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome = %v (covered %v)", res.Outcome, res.CoveredFraction)
	}
	if res.Access.PacketsRead != 0 {
		t.Fatal("covered window must not use the channel")
	}
	if !almostEqual(res.CoveredFraction, 1, 1e-9) {
		t.Fatalf("covered fraction = %v", res.CoveredFraction)
	}
	truth := windowTruth(w.db, win)
	if len(res.POIs) != len(truth) {
		t.Fatalf("got %d POIs want %d", len(res.POIs), len(truth))
	}
	for _, p := range res.POIs {
		if !truth[p.ID] {
			t.Fatalf("stray POI %d", p.ID)
		}
	}
}

// TestSBWQFigure9PartialCoverage reproduces the WQ2 case: a partially
// covered window resolves its uncovered remainder over the channel with
// reduced windows.
func TestSBWQFigure9PartialCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newTestWorld(t, rng, 300)
	vr := geom.NewRect(4, 4, 16, 28)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	win := geom.NewRect(8, 8, 24, 20) // pokes out to the right of the VR
	res := SBWQScratch(new(Scratch), geom.Pt(12, 12), win, []PeerData{pd}, SBWQConfig{}, w.sched, 0)
	if res.Outcome != OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.ReducedWindows) == 0 {
		t.Fatal("partial coverage must produce reduced windows")
	}
	// The reduced windows must cover exactly the uncovered part.
	for _, rw := range res.ReducedWindows {
		if !win.ContainsRect(rw) {
			t.Fatalf("reduced window %v outside query window", rw)
		}
		if rw.Min.X < 16-1e-9 && rw.Max.X > 16+1e-9 {
			// fine: spans boundary only if VR doesn't cover; checked by area below
			_ = rw
		}
	}
	if res.CoveredFraction <= 0 || res.CoveredFraction >= 1 {
		t.Fatalf("covered fraction = %v", res.CoveredFraction)
	}
	// Exactness: result equals ground truth.
	truth := windowTruth(w.db, win)
	if len(res.POIs) != len(truth) {
		t.Fatalf("got %d POIs want %d", len(res.POIs), len(truth))
	}
	for _, p := range res.POIs {
		if !truth[p.ID] {
			t.Fatalf("stray POI %d", p.ID)
		}
	}
}

// TestSBWQExactnessRandom: regardless of peer layout, SBWQ returns the
// exact window contents when a channel is available.
func TestSBWQExactnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := newTestWorld(t, rng, 250)
	for trial := 0; trial < 120; trial++ {
		peers := w.soundPeers(rng, rng.Intn(6))
		cx, cy := rng.Float64()*28, rng.Float64()*28
		win := geom.NewRect(cx, cy, cx+1+rng.Float64()*8, cy+1+rng.Float64()*8)
		q := win.Center()
		res := SBWQScratch(new(Scratch), q, win, peers, SBWQConfig{}, w.sched, rng.Int63n(500))
		truth := windowTruth(w.db, win)
		if len(res.POIs) != len(truth) {
			t.Fatalf("trial %d: got %d want %d (outcome %v, covered %v)",
				trial, len(res.POIs), len(truth), res.Outcome, res.CoveredFraction)
		}
		for _, p := range res.POIs {
			if !truth[p.ID] {
				t.Fatalf("trial %d: stray POI", trial)
			}
		}
		// Reduced windows never overlap the MVR interior or each other
		// (their total area equals the uncovered area).
		if res.Outcome == OutcomeBroadcast {
			var redArea float64
			for i, rw := range res.ReducedWindows {
				redArea += rw.Area()
				for _, o := range append(res.ReducedWindows[i+1:], res.MVR.Rects()...) {
					if _, ok := rw.Intersect(o); ok {
						t.Fatalf("trial %d: reduced window %v overlaps %v", trial, rw, o)
					}
				}
			}
			uncovered := uncoveredArea(win, res.MVR.Rects())
			if !almostEqual(redArea, uncovered, 1e-6) {
				t.Fatalf("trial %d: reduced area %v != uncovered %v",
					trial, redArea, uncovered)
			}
			if !almostEqual(res.CoveredFraction, 1-uncovered/win.Area(), 1e-9) {
				t.Fatalf("trial %d: covered fraction %v, uncovered area %v of %v",
					trial, res.CoveredFraction, uncovered, win.Area())
			}
		}
	}
}

// TestSBWQReducedWindowSavesPackets: partial coverage must not read more
// packets than the plain on-air window query.
func TestSBWQReducedWindowSavesPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := newTestWorld(t, rng, 400)
	vr := geom.NewRect(2, 2, 20, 30)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	win := geom.NewRect(6, 6, 26, 26)
	shared := SBWQScratch(new(Scratch), win.Center(), win, []PeerData{pd}, SBWQConfig{}, w.sched, 0)
	plain := SBWQScratch(new(Scratch), win.Center(), win, nil, SBWQConfig{}, w.sched, 0)
	if shared.Access.PacketsRead > plain.Access.PacketsRead {
		t.Fatalf("sharing increased packets: %d > %d",
			shared.Access.PacketsRead, plain.Access.PacketsRead)
	}
}

func TestSBWQNilSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newTestWorld(t, rng, 100)
	peers := w.soundPeers(rng, 2)
	win := geom.NewRect(0, 0, 32, 32) // certainly not covered
	res := SBWQScratch(new(Scratch), geom.Pt(16, 16), win, peers, SBWQConfig{}, nil, 0)
	if res.Outcome != OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Partial best-effort result: every returned POI is inside the window.
	for _, p := range res.POIs {
		if !win.Contains(p.Pos) {
			t.Fatal("POI outside window")
		}
	}
}

func TestSBWQNoPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := newTestWorld(t, rng, 150)
	win := geom.NewRect(5, 5, 15, 15)
	res := SBWQScratch(new(Scratch), win.Center(), win, nil, SBWQConfig{}, w.sched, 0)
	if res.Outcome != OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	truth := windowTruth(w.db, win)
	if len(res.POIs) != len(truth) {
		t.Fatalf("got %d want %d", len(res.POIs), len(truth))
	}
	if res.CoveredFraction != 0 {
		t.Fatalf("covered fraction = %v", res.CoveredFraction)
	}
}

// uncoveredArea is the area of w the rects leave uncovered, brute force:
// the grid their edges cut w into, one midpoint probe per cell.
func uncoveredArea(w geom.Rect, rects []geom.Rect) float64 {
	xs, ys := []float64{w.Min.X, w.Max.X}, []float64{w.Min.Y, w.Max.Y}
	for _, r := range rects {
		xs = append(xs, r.Min.X, r.Max.X)
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	slices.Sort(xs)
	slices.Sort(ys)
	area := 0.0
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cell := geom.NewRect(xs[i], ys[j], xs[i+1], ys[j+1])
			if !w.ContainsRect(cell) || cell.Empty() ||
				geom.NewRectUnion(rects...).Contains(cell.Center()) {
				continue
			}
			area += cell.Area()
		}
	}
	return area
}

// A window of zero area — a point or a segment — runs through the same
// cut: it is covered when the MVR holds all of it, edges included, and is
// otherwise resolved over the channel whole. Its covered fraction is 1 or
// 0 by that verdict alone, which no reflection of the window changes.
func TestSBWQEmptyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newTestWorld(t, rng, 400)
	vr := geom.NewRect(2, 2, 8, 8)
	pd := PeerData{VR: vr}
	for _, p := range w.db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	for _, c := range []struct {
		name    string
		win     geom.Rect
		covered bool
	}{
		{"point inside the member", geom.NewRect(5, 5, 5, 5), true},
		{"point on its edge", geom.NewRect(8, 5, 8, 5), true},
		{"point on its corner", geom.NewRect(2, 8, 2, 8), true},
		{"point outside it", geom.NewRect(10, 5, 10, 5), false},
		{"segment inside it", geom.NewRect(3, 4, 7, 4), true},
		{"segment along its edge", geom.NewRect(2, 3, 2, 7), true},
		{"segment whose Min corner alone is covered", geom.NewRect(8, 5, 12, 5), false},
		{"segment whose Max corner alone is covered", geom.NewRect(-2, 5, 2, 5), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := SBWQScratch(new(Scratch), c.win.Center(), c.win, []PeerData{pd}, SBWQConfig{}, w.sched, 0)
			want, fraction := OutcomeBroadcast, 0.0
			if c.covered {
				want, fraction = OutcomeVerified, 1
			}
			if res.Outcome != want || res.CoveredFraction != fraction {
				t.Fatalf("outcome %v, covered fraction %v; want %v, %v", res.Outcome, res.CoveredFraction, want, fraction)
			}
			if c.covered != (len(res.ReducedWindows) == 0) {
				t.Fatalf("reduced windows %v", res.ReducedWindows)
			}
			if !c.covered && (len(res.ReducedWindows) != 1 || res.ReducedWindows[0] != c.win) {
				t.Fatalf("reduced windows %v, want the window whole", res.ReducedWindows)
			}
			truth := windowTruth(w.db, c.win)
			if len(res.POIs) != len(truth) {
				t.Fatalf("got %d POIs, want %d", len(res.POIs), len(truth))
			}
			for _, p := range res.POIs {
				if !truth[p.ID] {
					t.Fatalf("stray POI %d", p.ID)
				}
			}
		})
	}
}
