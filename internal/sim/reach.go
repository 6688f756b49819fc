package sim

import (
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/trust"
)

// admit runs what lies between gather and the trust screen over the
// collection, in gather order: the reach cut when cut is set (DESIGN.md
// §9.3 "The reach cut"), then the consistency gate (admitShared) on every
// region the cut keeps. If the gate pushes the k-th candidate past the cut,
// the cut widens once, before anything is screened: the far regions are
// admitted too. Otherwise a far region stays in its place as an audit-only
// claim when the audit walk would sample it, and is dropped when it would
// not. The admitted rows are left in the query's collection.
func (w *World) admit(e *query, cut bool) {
	var d2 float64
	var keep []bool
	if cut {
		d2, keep = w.reachCut(e.q, e.k)
	}
	if keep == nil && w.cons == nil {
		return
	}
	col, next := &w.qs.col, &w.qs.next
	next.reset()
	changed := false
	for i := range col.peers {
		pd, o := col.peers[i], col.from[i]
		if o.far = keep != nil && !keep[i]; o.far {
			next.add(pd, o) // held until the gate has run on the kept regions
			continue
		}
		// Only a region that listed a candidate can push the k-th one out.
		changed = w.admitShared(next, pd, o) && keep != nil && pd.Lists(e.q, d2) || changed
	}
	w.qs.col, w.qs.next = w.qs.next, w.qs.col
	if keep == nil {
		return
	}
	widen := false
	if changed {
		d, ok := core.Reach(&w.qs.core, e.q, w.qs.col.peers, w.candidates(), e.k)
		widen = !ok || d > d2
	}
	next.reset()
	for i := range col.peers {
		pd, o := col.peers[i], col.from[i]
		switch {
		case !o.far:
			next.add(pd, o)
		case widen:
			o.far = false
			w.admitShared(next, pd, o)
		case w.auditable(&pd, o):
			next.add(pd, o)
		}
	}
	w.qs.col, w.qs.next = w.qs.next, w.qs.col
}

// reachCut returns the squared distance from q of the k-th candidate of
// the collection and, per row, whether the cut keeps it (core.ReachCut);
// nil when the collection holds fewer than k candidates.
func (w *World) reachCut(q geom.Point, k int) (float64, []bool) {
	d2, ok := core.Reach(&w.qs.core, q, w.qs.col.peers, w.candidates(), k)
	if !ok {
		return 0, nil
	}
	w.qs.keep = core.ReachCut(w.qs.keep, q, w.qs.col.peers, d2)
	return d2, w.qs.keep
}

// candidates marks, per row of the collection, whether the screen can let
// its POIs through as candidates: not beyond the cut, not of a peer already
// quarantined. Reach reads the marked rows taint ignored, so it counts a
// demoted region's POIs too: they stay candidates, in NNV's tainted pool.
func (w *World) candidates() []bool {
	use := w.qs.use[:0]
	for _, o := range w.qs.col.from {
		use = append(use, !o.far && !w.tr.Quarantined(o.peer))
	}
	w.qs.use = use
	return use
}

// auditable reports whether a far region would enter the screen as a whole
// claim at the current epoch, what the audit walk samples (DESIGN.md
// §11.2): keeping every such claim keeps the vouched population as it is
// without the cut.
func (w *World) auditable(pd *core.PeerData, o origin) bool {
	if w.tr == nil || o.peer == trust.Self || pd.Tainted {
		return false
	}
	return w.verdict(&cache.Region{Rect: pd.VR, POIs: pd.POIs, Epoch: o.epoch}) == cache.Current
}
