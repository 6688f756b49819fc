package sim

import (
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/trust"
)

// admit runs what lies between gather and the trust screen over the staged
// collection, in gather order: the reach cut when cut is set (DESIGN.md
// §9.3 "The reach cut"), then the consistency gate (admitShared) on every
// region the cut keeps. If the gate pushes the k-th candidate past the cut,
// the cut widens once, before anything is screened: the far regions are
// admitted too. Otherwise a far region stays in its place as an audit-only
// claim when the audit walk would sample it, and is dropped when it would
// not. It returns the admitted collection.
func (w *World) admit(e *query, cut bool) []core.PeerData {
	var d2 float64
	var keep []bool
	if cut {
		d2, keep = w.reachCut(e.q, e.k)
	}
	if keep == nil && w.cons == nil {
		return w.qs.col.peers
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
		changed = w.admitShared(next, e.ti, pd, o) && keep != nil && pd.Lists(e.q, d2) || changed
	}
	w.qs.col, w.qs.next = w.qs.next, w.qs.col
	if keep == nil {
		return w.qs.col.peers
	}
	widen := false
	if changed {
		d, ok := core.Reach(&w.qs.core, e.q, w.claims(), e.k)
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
			w.admitShared(next, e.ti, pd, o)
		case w.auditable(e.ti, &pd, o):
			next.add(pd, o)
		}
	}
	w.qs.col, w.qs.next = w.qs.next, w.qs.col
	return w.qs.col.peers
}

// reachCut returns the squared distance from q of the k-th candidate of
// the staged collection and, per staged entry, whether the cut keeps it
// (core.ReachCut); nil when the collection holds fewer than k candidates.
func (w *World) reachCut(q geom.Point, k int) (float64, []bool) {
	d2, ok := core.Reach(&w.qs.core, q, w.claims(), k)
	if !ok {
		return 0, nil
	}
	w.qs.keep = core.ReachCut(w.qs.keep, q, w.qs.col.peers, d2)
	return d2, w.qs.keep
}

// claims returns the collected regions whose POIs the screen can let
// through as candidates — none beyond the cut, none of a peer already
// quarantined — marked untainted, so that Reach counts a demoted region's
// POIs too: they stay candidates, in NNV's tainted pool.
func (w *World) claims() []core.PeerData {
	out, col := w.qs.claims[:0], &w.qs.col
	for i := range col.peers {
		if o := col.from[i]; !o.far && !w.tr.Quarantined(o.peer) {
			out = append(out, col.peers[i])
			out[len(out)-1].Tainted = false
		}
	}
	w.qs.claims = out
	return out
}

// auditable reports whether a far region would enter the screen as a whole
// claim at the current epoch, what the audit walk samples (DESIGN.md
// §11.2): keeping every such claim keeps the vouched population as it is
// without the cut.
func (w *World) auditable(ti int, pd *core.PeerData, o origin) bool {
	if w.tr == nil || o.peer == trust.Self || pd.Tainted {
		return false
	}
	if w.cons == nil || o.epoch >= w.cons.types[ti].epoch {
		return true
	}
	tc := &w.cons.types[ti]
	return !w.Params.IRDiscard && o.epoch >= tc.horizon-1 &&
		!tc.invals.Touches(&cache.Region{Rect: pd.VR, POIs: pd.POIs, Epoch: o.epoch})
}
