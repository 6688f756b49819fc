package lbsq_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lbsq"
)

func demoServer(t *testing.T, rng *rand.Rand, n int) *lbsq.Server {
	t.Helper()
	area := lbsq.NewRect(0, 0, 20, 20)
	pois := make([]lbsq.POI, n)
	for i := range pois {
		pois[i] = lbsq.POI{ID: int64(i), Pos: lbsq.Pt(rng.Float64()*20, rng.Float64()*20)}
	}
	srv, err := lbsq.NewServer(area, pois, lbsq.BroadcastConfig{Order: 4, PacketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func truthKNN(pois []lbsq.POI, q lbsq.Point, k int) []lbsq.POI {
	s := append([]lbsq.POI(nil), pois...)
	sort.Slice(s, func(i, j int) bool { return s[i].Pos.DistSq(q) < s[j].Pos.DistSq(q) })
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func TestNewServerValidation(t *testing.T) {
	if _, err := lbsq.NewServer(lbsq.Rect{}, nil, lbsq.BroadcastConfig{}); err == nil {
		t.Error("empty area must be rejected")
	}
	srv := demoServer(t, rand.New(rand.NewSource(1)), 50)
	if srv.Area() != lbsq.NewRect(0, 0, 20, 20) {
		t.Error("Area accessor wrong")
	}
	if len(srv.POIs()) != 50 {
		t.Error("POIs accessor wrong")
	}
	if srv.POIDensity() != 50.0/400 {
		t.Errorf("POIDensity = %v", srv.POIDensity())
	}
	if srv.Schedule() == nil {
		t.Error("Schedule accessor nil")
	}
}

func TestClientKNNNoPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	srv := demoServer(t, rng, 120)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 50)
	res := c.KNN(3, nil)
	if res.Outcome != lbsq.OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	want := truthKNN(srv.POIs(), c.Pos(), 3)
	for i := range want {
		if res.POIs[i].ID != want[i].ID {
			t.Fatalf("rank %d: got %d want %d", i, res.POIs[i].ID, want[i].ID)
		}
	}
	if c.NowSlot() == 0 {
		t.Error("broadcast query must advance the clock")
	}
	if c.CacheSize() == 0 {
		t.Error("broadcast query must fill the cache")
	}
}

func TestClientToClientSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srv := demoServer(t, rng, 200)
	// Client A performs a broadcast query, becoming an authority around
	// (10,10).
	a := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	a.KNN(8, nil)
	if len(a.Share()) == 0 {
		t.Fatal("client A has nothing to share")
	}
	// Client B at the same spot asks A's cache: a small-k query should now
	// verify without the channel.
	b := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	res := b.KNN(1, a.Share())
	if res.Outcome != lbsq.OutcomeVerified {
		t.Fatalf("outcome = %v (heap %d/%d verified)", res.Outcome,
			res.Heap.VerifiedCount(), res.Heap.Len())
	}
	if res.Access.PacketsRead != 0 {
		t.Fatal("verified answer must not read packets")
	}
	want := truthKNN(srv.POIs(), b.Pos(), 1)
	if res.POIs[0].ID != want[0].ID {
		t.Fatalf("NN = %d want %d", res.POIs[0].ID, want[0].ID)
	}
}

func TestClientWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	srv := demoServer(t, rng, 200)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	w := lbsq.NewRect(8, 8, 12, 12)
	res := c.Window(w, nil)
	if res.Outcome != lbsq.OutcomeBroadcast {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	count := 0
	for _, p := range srv.POIs() {
		if w.Contains(p.Pos) {
			count++
		}
	}
	if len(res.POIs) != count {
		t.Fatalf("window got %d want %d", len(res.POIs), count)
	}
	// Second identical window query with the first client's share: covered.
	d := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	res2 := d.Window(w, c.Share())
	if res2.Outcome != lbsq.OutcomeVerified {
		t.Fatalf("second window outcome = %v", res2.Outcome)
	}
	if len(res2.POIs) != count {
		t.Fatalf("second window got %d want %d", len(res2.POIs), count)
	}
}

// A Client's query results belong to the caller: a kNN result's heap,
// merged verified region and POIs, and a window result's region, reduced
// windows and POIs, stay as they were while the same client runs more
// queries.
func TestClientResultsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srv := demoServer(t, rng, 200)
	peer := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	peer.KNN(8, nil)
	peer.Window(lbsq.NewRect(9, 11, 13, 13), nil)
	c := lbsq.NewClient(srv, lbsq.Pt(10.5, 10.5), 100)
	c.DisableOwnCache = true

	knn := c.KNN(5, peer.Share())
	win := c.Window(lbsq.NewRect(12, 12, 16, 16), peer.Share())
	if knn.Heap.Len() == 0 || len(knn.MVR.Rects()) == 0 || len(knn.POIs) == 0 ||
		len(win.MVR.Rects()) == 0 || len(win.ReducedWindows) == 0 || len(win.POIs) == 0 {
		t.Fatalf("fixture: kNN heap %d, MVR %d, POIs %d; window MVR %d, reduced %d, POIs %d",
			knn.Heap.Len(), len(knn.MVR.Rects()), len(knn.POIs),
			len(win.MVR.Rects()), len(win.ReducedWindows), len(win.POIs))
	}
	entries := slices.Clone(knn.Heap.Entries())
	knnMVR, knnPOIs := slices.Clone(knn.MVR.Rects()), slices.Clone(knn.POIs)
	winMVR, reduced, winPOIs := slices.Clone(win.MVR.Rects()), slices.Clone(win.ReducedWindows), slices.Clone(win.POIs)

	for i := 0; i < 6; i++ {
		c.MoveTo(lbsq.Pt(2+3*float64(i), 17-2*float64(i)))
		c.KNN(1+i, peer.Share())
		pos := c.Pos()
		c.Window(lbsq.NewRect(pos.X-1, pos.Y-2, pos.X+2, pos.Y+1), peer.Share())
	}
	if !slices.Equal(knn.Heap.Entries(), entries) || !slices.Equal(knn.MVR.Rects(), knnMVR) || !slices.Equal(knn.POIs, knnPOIs) {
		t.Fatal("a kNN result changed under the client's later queries")
	}
	if !slices.Equal(win.MVR.Rects(), winMVR) || !slices.Equal(win.ReducedWindows, reduced) || !slices.Equal(win.POIs, winPOIs) {
		t.Fatal("a window result changed under the client's later queries")
	}
}

// A Client's results do not share storage with its cache: writing to a
// window answer or to a kNN result's Known leaves what the client shares
// as it was.
func TestClientResultsDoNotAliasCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	srv := demoServer(t, rng, 200)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	shared := func() []lbsq.POI {
		var out []lbsq.POI
		for _, pd := range c.Share() {
			out = append(out, pd.POIs...)
		}
		return out
	}
	win := c.Window(lbsq.NewRect(8, 8, 12, 12), nil)
	if len(win.POIs) == 0 {
		t.Fatal("fixture: empty window")
	}
	before := shared()
	win.POIs[0].ID = -1
	if !slices.Equal(shared(), before) {
		t.Fatal("writing a window answer changed what the client shares")
	}

	c.MoveTo(lbsq.Pt(3, 16))
	knn := c.KNN(4, nil)
	if len(knn.Known) == 0 {
		t.Fatal("fixture: the kNN query gained no knowledge")
	}
	before = shared()
	knn.Known[0].ID = -1
	if !slices.Equal(shared(), before) {
		t.Fatal("writing a kNN result's Known changed what the client shares")
	}
}

// Share's rows belong to the caller: writing one must not change what the
// client shares next, nor the verified region it answers peers with.
func TestShareDoesNotAliasCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	srv := demoServer(t, rng, 200)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 100)
	c.Window(lbsq.NewRect(8, 8, 12, 12), nil)
	rows := c.Share()
	if len(rows) == 0 || len(rows[0].POIs) == 0 {
		t.Fatal("fixture: the window query cached no POI")
	}
	want := slices.Clone(rows[0].POIs)
	rows[0].POIs[0].ID = -1
	if got := c.Share(); !slices.Equal(got[0].POIs, want) {
		t.Fatalf("writing a shared row changed the next Share: %v, want %v", got[0].POIs, want)
	}
}

func TestClientMoveToUpdatesHeading(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srv := demoServer(t, rng, 50)
	c := lbsq.NewClient(srv, lbsq.Pt(0, 0), 10)
	c.MoveTo(lbsq.Pt(5, 0))
	if c.Pos() != lbsq.Pt(5, 0) {
		t.Fatalf("Pos = %v", c.Pos())
	}
	c.MoveTo(lbsq.Pt(5, 0)) // no movement: heading preserved, no panic
	c.AdvanceSlots(10)
	if c.NowSlot() != 10 {
		t.Fatalf("NowSlot = %d", c.NowSlot())
	}
	c.AdvanceSlots(-5) // ignored
	if c.NowSlot() != 10 {
		t.Fatalf("NowSlot after negative advance = %d", c.NowSlot())
	}
}

// A verified region with a NaN or infinite coordinate promises nothing a
// peer can use: the client must not cache it, so it never shares it.
func TestNonFiniteKnowledgeIsNotShared(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	srv := gridServer()
	c := lbsq.NewClient(srv, lbsq.Pt(8, 8), 50)
	c.Window(lbsq.Rect{Min: lbsq.Pt(6, nan), Max: lbsq.Pt(10, 10)}, nil)
	if got := c.Share(); len(got) != 0 {
		t.Errorf("window with a NaN corner shared %v", got)
	}
	c = lbsq.NewClient(srv, lbsq.Pt(nan, 8), 50)
	c.KNN(3, nil)
	if got := c.Share(); len(got) != 0 {
		t.Errorf("kNN from a NaN position shared %v", got)
	}
	c = lbsq.NewClient(srv, lbsq.Pt(8, 8), 50)
	c.Window(lbsq.Rect{Min: lbsq.Pt(6, 6), Max: lbsq.Pt(inf, 10)}, nil)
	if got := c.Share(); len(got) != 0 {
		t.Errorf("window reaching +Inf shared %v", got)
	}
}

func TestCorrectnessProbabilityReexport(t *testing.T) {
	if p := lbsq.CorrectnessProbability(0.3, 2); p < 0.54 || p > 0.56 {
		t.Fatalf("paper example probability = %v", p)
	}
}

func TestSimulationFacade(t *testing.T) {
	p := lbsq.LACity().Scaled(1.5).WithDuration(0.05)
	p.Kind = lbsq.KNNQuery
	p.Seed = 6
	p.TimeStepSec = 10
	w, err := lbsq.NewSimulation(p)
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Run()
	if stats.Queries == 0 {
		t.Fatal("no queries")
	}
	// The other presets construct, too.
	if lbsq.SyntheticSuburbia().MHNumber != 51500 || lbsq.RiversideCounty().MHNumber != 9700 {
		t.Error("preset re-exports wrong")
	}
}

func TestApproximateClientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	srv := demoServer(t, rng, 300)
	a := lbsq.NewClient(srv, lbsq.Pt(10, 10), 200)
	a.KNN(10, nil) // fill cache around (10,10)
	b := lbsq.NewClient(srv, lbsq.Pt(10.2, 10.2), 50)
	b.AcceptApproximate = true
	b.MinCorrectness = 0 // accept anything with a full heap
	res := b.KNN(6, a.Share())
	// Outcome is verified, approximate, or broadcast depending on layout,
	// but an approximate outcome must carry correctness annotations.
	if res.Outcome == lbsq.OutcomeApproximate {
		for _, e := range res.Heap.Entries() {
			if !e.Verified && (e.Correctness <= 0 || e.Correctness > 1) {
				t.Fatalf("bad correctness %v", e.Correctness)
			}
		}
	}
}

func TestOwnCacheAnswersRepeatedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	srv := demoServer(t, rng, 250)
	c := lbsq.NewClient(srv, lbsq.Pt(10, 10), 80)
	first := c.KNN(6, nil)
	if first.Outcome != lbsq.OutcomeBroadcast {
		t.Fatalf("first outcome = %v", first.Outcome)
	}
	// Asking again (small move, smaller k): the own cache verifies it
	// with zero channel access.
	c.MoveTo(lbsq.Pt(10.02, 10.01))
	second := c.KNN(2, nil)
	if second.Outcome != lbsq.OutcomeVerified {
		t.Fatalf("second outcome = %v", second.Outcome)
	}
	if second.Access.PacketsRead != 0 {
		t.Fatal("own-cache answer read packets")
	}
	// With DisableOwnCache the same query pays the channel again.
	d := lbsq.NewClient(srv, lbsq.Pt(10, 10), 80)
	d.KNN(6, nil)
	d.DisableOwnCache = true
	third := d.KNN(2, nil)
	if third.Outcome != lbsq.OutcomeBroadcast {
		t.Fatalf("disabled own cache outcome = %v", third.Outcome)
	}
}
