package sim

import (
	"lbsq/internal/core"
	"lbsq/internal/sweep"
)

// The tick engine (DESIGN.md §14): World.Step launches every one-shot
// query through launch, which shapes and prepares it serially and then
// applies the flush policy — the only thing Params.TickWorkers changes:
//
//	TickWorkers ≤ 1  execute and commit each query as it is drawn, on
//	                 World scratch, straight from the collection buffers.
//	TickWorkers > 1  hold prepared queries as pending entries (peers
//	                 snapshotted) and flush them together: execute across
//	                 workers under the internal/sweep determinism
//	                 contract, then commit serially in query order.
//
// Identity argument. Execute reads only state frozen for the tick (host
// positions, schedules, epochs, the entry's own peer snapshot) and the
// core algorithms are pure; prepare and commit run serially in query
// order, so every random stream and every order-dependent side effect
// (trace lines, metric histograms, cache mutations) is consumed or
// produced in the same sequence at every worker count. The one coupling
// between queries of a tick — a commit inserting a cache region a later
// prepare could read — is broken by the conflict flush: before preparing
// a query that could observe a pending entry's commit (same data type,
// and same host or within multi-hop radio reach), everything pending is
// flushed. On a lossy broadcast channel the schedule's reception-error
// stream is consumed by execute and by baseline pricing, so a flush then
// runs [execute, commit] per entry, serially.

// tickEngine holds the pending entries and reusable buffers of the tick
// path. Owned by the World's goroutine except during a parallel
// execute, when workers write disjoint entries' res/poiBuf fields.
type tickEngine struct {
	entries []query
	n       int
	first   [1]query // initial backing of entries: a serial world never grows it

	serialAir bool // lossy broadcast channel: execute serially at commit
}

func (eng *tickEngine) alloc() *query {
	if eng.entries == nil {
		eng.entries = eng.first[:]
	}
	if eng.n == len(eng.entries) {
		eng.entries = append(eng.entries, query{})
	}
	e := &eng.entries[eng.n]
	eng.n++
	return e
}

// conflicts reports whether a new query on (idx, ti) could observe any
// pending entry's commit — or mutate cache state its commit reads. A
// pending commit touches exactly the cache (entry.idx, entry.ti); the
// new query reads (and touches) its own cache and those of its
// multi-hop neighbors, all of the same type and within
// SharingHops × TxRange of its position. Host positions are frozen for
// the tick, so the Euclidean bound is exact.
func (eng *tickEngine) conflicts(w *World, idx, ti int) bool {
	if eng.n == 0 {
		return false
	}
	hops := w.Params.SharingHops
	if hops < 1 {
		hops = 1
	}
	reach := float64(hops) * w.Params.TxRangeMiles()
	pos := w.hosts[idx].mob.Pos
	for i := 0; i < eng.n; i++ {
		e := &eng.entries[i]
		if e.ti != ti {
			continue
		}
		if e.idx == idx || e.q.DistSq(pos) <= reach*reach {
			return true
		}
	}
	return false
}

// launch runs one one-shot query by host idx on data type ti: shape from
// the world stream, prepare, then execute and commit now or at a later
// flush.
func (w *World) launch(idx, ti int) {
	eng := &w.eng
	if eng.conflicts(w, idx, ti) {
		w.flushBatch()
	}
	e := eng.alloc()
	w.start(e, idx, ti)
	if w.Params.Kind == WindowQuery {
		win, ok := w.drawWindow(e.q)
		if !ok {
			eng.n--
			return
		}
		e.shapeWindow(win)
	} else {
		w.shapeKNN(e, w.drawK())
	}
	w.prepare(e)
	// The baseline coin is the only world-stream draw a query makes after
	// its shape, and nothing between here and its commit consumes that
	// stream, so drawing it now keeps its position at every flush policy.
	if w.CompareBaseline && w.counted() {
		rate := w.BaselineSampleRate
		if rate <= 0 {
			rate = 0.2
		}
		e.baseline = w.rng.Float64() <= rate
	}
	if w.Params.TickWorkers <= 1 {
		w.flushBatch()
		return
	}
	// Entry-owned snapshot: the top-level slice is copied; the POI slices
	// inside alias cache storage that is immutable until a conflicting
	// flush (see the conflict predicate), or the arena prepare rewinds.
	e.own = append(e.own[:0], e.peers...)
	e.peers = e.own
}

// flushBatch executes and commits every pending entry, in query order.
func (w *World) flushBatch() {
	eng := &w.eng
	if eng.serialAir || eng.n == 1 {
		// A single entry has no work to overlap, so it skips the dispatch.
		for i := 0; i < eng.n; i++ {
			e := &eng.entries[i]
			w.execute(e, &w.qs.core)
			w.commit(e)
		}
	} else if eng.n > 1 {
		w.executeBatch()
		for i := 0; i < eng.n; i++ {
			w.commit(&eng.entries[i])
		}
	}
	eng.n = 0
}

// executeBatch runs every pending entry as one sweep cell. Cells own all
// their mutable state (pooled scratch, their entry's result fields),
// satisfying the sweep determinism contract.
func (w *World) executeBatch() {
	eng := &w.eng
	cells := make([]func() struct{}, eng.n)
	for c := range cells {
		e := &eng.entries[c]
		cells[c] = func() struct{} {
			s := core.GetScratch()
			w.execute(e, s)
			if !e.window {
				// SBNN answers alias the scratch the next cell reuses.
				e.poiBuf = append(e.poiBuf[:0], e.res.pois...)
				e.res.pois = e.poiBuf
			}
			e.res.mvr = nil // likewise, and no commit reads it
			core.PutScratch(s)
			return struct{}{}
		}
	}
	sweep.Run(w.Params.TickWorkers, cells)
}
