package sim

// Completeness of collection (ROADMAP item 12). -selfcheck proves that an
// exact answer is right; nothing there proves that the pipeline verified
// everything it could have. A collection that silently drops a relevant
// peer or region stays sound — answers fall from verified to approximate
// or to the channel — so every other gate stays green. This test recomputes
// each query's collection by brute force, from a linear scan of host
// positions (no neighbor grid) and every region of those caches that meets
// the relevance contract (no cache bounds, the formula restated here), runs
// the core algorithm on it, and requires the pipeline's answer to decide
// the same way.

import (
	"fmt"
	"math"
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// bruteRelevance restates the relevance contract: a window query's
// regions must meet the window; a kNN query's the square around q of
// half-side four expected k-NN distances under the POI density, at least
// twice the radio range and at most the map side.
func bruteRelevance(w *World, e *query) geom.Rect {
	if e.window {
		return e.win
	}
	lambda := math.Max(w.types[e.ti].lambda, 1e-9)
	r := 4 * math.Sqrt(float64(e.k)/(math.Pi*lambda))
	r = math.Max(r, 2*w.Params.TxRangeMiles())
	return geom.RectAround(e.q, math.Min(r, w.Params.AreaMiles))
}

// bruteCollection is every region a single-hop gather could have
// received: the own cache when the knob shares it, then every host within
// radio range in ascending ID, each region that meets the relevance
// rectangle.
func bruteCollection(w *World, e *query) []core.PeerData {
	rel := bruteRelevance(w, e)
	var peers []core.PeerData
	add := func(id int) {
		regions := w.caches[e.ti][id].Regions()
		for i := range regions {
			if regions[i].Rect.Intersects(rel) {
				peers = append(peers, core.PeerData{VR: regions[i].Rect, POIs: regions[i].POIs})
			}
		}
	}
	if w.Params.UseOwnCache {
		add(e.idx)
	}
	tx := w.Params.TxRangeMiles()
	for id := range w.mob {
		if id != e.idx && w.mob[id].Pos.DistSq(e.q) <= tx*tx {
			add(id)
		}
	}
	return peers
}

// checkComplete compares the committed query e with the core algorithm
// run on the brute-force collection.
func checkComplete(w *World, e *query) error {
	peers := bruteCollection(w, e)
	got := &e.res
	if e.window {
		cfg := core.SBWQConfig{
			MaxKnownArea: 1.5 * float64(w.Params.CacheSize) / math.Max(w.types[e.ti].lambda, 1e-9),
		}
		want := core.SBWQWithConfig(e.q, e.win, peers, cfg, e.sched, e.now)
		if got.outcome != want.Outcome || len(got.pois) != len(want.POIs) || got.knownRegion != want.KnownRegion {
			return fmt.Errorf("window q=%v w=%v: got %v, %d POIs, known %v; brute force %v, %d POIs, known %v",
				e.q, e.win, got.outcome, len(got.pois), got.knownRegion, want.Outcome, len(want.POIs), want.KnownRegion)
		}
		return nil
	}
	cfg := core.SBNNConfig{K: e.k, Lambda: w.types[e.ti].lambda,
		AcceptApproximate: w.Params.AcceptApproximate, MinCorrectness: w.Params.MinCorrectness}
	want := core.SBNN(e.q, peers, cfg, e.sched, e.now)
	if got.outcome != want.Outcome || got.knownRegion != want.KnownRegion {
		return fmt.Errorf("kNN q=%v k=%d: got %v known %v; brute force %v known %v",
			e.q, e.k, got.outcome, got.knownRegion, want.Outcome, want.KnownRegion)
	}
	// The heap the pipeline decided from: NNV is pure, so running it on the
	// collection the pipeline executed reproduces it row for row.
	rows := core.NNV(e.q, e.peers, e.k, cfg.Lambda).Heap
	if rows.VerifiedCount() != want.Heap.VerifiedCount() || rows.Len() != want.Heap.Len() {
		return fmt.Errorf("kNN q=%v k=%d: %d of %d rows verified; brute force %d of %d",
			e.q, e.k, rows.VerifiedCount(), rows.Len(), want.Heap.VerifiedCount(), want.Heap.Len())
	}
	for i, r := range rows.Entries() {
		b := want.Heap.Entries()[i]
		if math.Abs(r.Correctness-b.Correctness) > 1e-12 {
			return fmt.Errorf("kNN q=%v k=%d row %d: correctness %v, brute force %v",
				e.q, e.k, i, r.Correctness, b.Correctness)
		}
	}
	return nil
}

// TestCollectionComplete runs the zero-knob golden worlds, as committed
// and with the own cache shared, with the completeness check on every
// one-shot, mode-full query that was neither coalesced nor shed.
func TestCollectionComplete(t *testing.T) {
	worlds := goldenWorlds()
	for _, name := range []string{"knn_zero", "window_zero", "sparse_knn"} {
		t.Run(name, func(t *testing.T) { checkWorldComplete(t, worlds[name]) })
		own := worlds[name]
		own.UseOwnCache = true
		t.Run(name+"_owncache", func(t *testing.T) { checkWorldComplete(t, own) })
	}
}

// checkWorldComplete runs p with the self-check and the completeness check
// on, and requires both to pass on a meaningful number of queries.
func checkWorldComplete(t *testing.T, p Params) {
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	checked := 0
	var first error
	w.commitHook = func(e *query) {
		if e.qc.mode != modeFull || e.coalesced || e.shed != shedNone {
			return
		}
		checked++
		if err := checkComplete(w, e); err != nil && first == nil {
			first = err
		}
	}
	w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
	if first != nil {
		t.Fatalf("after %d queries: %v", checked, first)
	}
	if checked < 100 {
		t.Fatalf("only %d queries checked", checked)
	}
}
