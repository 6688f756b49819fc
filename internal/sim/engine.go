package sim

import (
	"math"
	"sync"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/sweep"
)

// The tick engine (DESIGN.md §14): World.Step launches every one-shot
// query through launch, which shapes and prepares it serially and then
// applies the flush policy — the only thing Params.TickWorkers changes:
//
//	TickWorkers ≤ 1  execute and commit each query as it is drawn, on
//	                 World scratch, straight from the collection buffers.
//	TickWorkers > 1  hold prepared queries as pending entries (peers
//	                 snapshotted, VR sequence fingerprinted) and flush
//	                 them together: execute across workers under the
//	                 internal/sweep determinism contract, entries with
//	                 identical untainted VR multisets sharing one merged
//	                 region, then commit serially in query order.
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
//
// Memoization. Entries whose untainted VR multisets match share one
// merged RectUnion (Stats.MVRMemoHits). This rests on the RectUnion
// purity contract: the union's observable state is a function of its
// member multiset alone, never of the instance's history
// (TestRectUnionOrderIndependence, TestScratchMVRVariantsMatch).

// tickGroup is one memo group: entries sharing an untainted VR
// multiset, hence one merged verified region.
type tickGroup struct {
	rep     int   // entry index of the representative
	members []int // entry indices, batch order (rep first)
}

// tickEngine holds the pending entries and reusable buffers of the tick
// path. Owned by the World's goroutine except during a parallel
// execute, when workers write disjoint entries' res/poiBuf fields.
type tickEngine struct {
	entries []query
	n       int
	first   [1]query // initial backing of entries: a serial world never grows it
	groups  []tickGroup
	nGroups int

	fpIdx map[uint64][]int // fingerprint → group indices

	serialAir bool // lossy broadcast channel: execute serially at commit
}

// tickMVRPool recycles the per-group merged verified regions across
// flushes and worker goroutines.
var tickMVRPool = sync.Pool{New: func() any { return new(geom.RectUnion) }}

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

func (eng *tickEngine) allocGroup() *tickGroup {
	if eng.nGroups == len(eng.groups) {
		eng.groups = append(eng.groups, tickGroup{})
	}
	g := &eng.groups[eng.nGroups]
	eng.nGroups++
	return g
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
	e.peerBytes = w.stats.PeerBytes
	if w.Params.TickWorkers <= 1 {
		w.flushBatch()
		return
	}
	// Entry-owned snapshot: the top-level slice is copied; the POI slices
	// inside alias cache storage that is immutable until a conflicting
	// flush (see core.PeerData and the conflict predicate).
	e.own = append(e.own[:0], e.peers...)
	e.peers = e.own
	e.fp = untaintedFP(e.peers)
}

// flushBatch executes and commits every pending entry, in query order.
func (w *World) flushBatch() {
	eng := &w.eng
	if eng.serialAir || eng.n == 1 {
		// A single entry can neither share an MVR nor overlap work, so it
		// skips group planning and dispatch; the outputs (memo counters
		// included) are the same.
		for i := 0; i < eng.n; i++ {
			e := &eng.entries[i]
			w.execute(e, &w.qs.core, &w.qs.mvr, false)
			w.commit(e)
		}
	} else if eng.n > 1 {
		w.planGroups()
		w.executeBatch()
		for i := 0; i < eng.n; i++ {
			w.commit(&eng.entries[i])
		}
	}
	eng.n = 0
}

// planGroups partitions the batch into memo groups (identical untainted
// VR multisets). Runs serially, so the memo counter and the
// deterministic first-appearance group order cost no synchronization.
func (w *World) planGroups() {
	eng := &w.eng
	eng.nGroups = 0
	if eng.fpIdx == nil {
		eng.fpIdx = make(map[uint64][]int)
	}
	clear(eng.fpIdx)
	for i := 0; i < eng.n; i++ {
		e := &eng.entries[i]
		memo := -1
		for _, gi := range eng.fpIdx[e.fp] {
			if untaintedVRsEqual(eng.entries[eng.groups[gi].rep].peers, e.peers) {
				memo = gi
				break
			}
		}
		if memo >= 0 {
			eng.groups[memo].members = append(eng.groups[memo].members, i)
			w.stats.MVRMemoHits++
			continue
		}
		g := eng.allocGroup()
		g.rep = i
		g.members = append(g.members[:0], i)
		eng.fpIdx[e.fp] = append(eng.fpIdx[e.fp], eng.nGroups-1)
	}
}

// executeBatch runs every memo group as one sweep cell: the group's MVR
// is merged once (the strips build lazily on the first algorithm query)
// and every member entry executes against the shared prebuilt union.
// Cells own all their mutable state (pooled scratch, pooled RectUnion,
// their entries' result fields), satisfying the sweep determinism
// contract.
func (w *World) executeBatch() {
	eng := &w.eng
	cells := make([]func() struct{}, eng.nGroups)
	for c := range cells {
		g := &eng.groups[c]
		cells[c] = func() struct{} {
			s := core.GetScratch()
			mvr := tickMVRPool.Get().(*geom.RectUnion)
			mvr.Reset()
			for _, p := range eng.entries[g.rep].peers {
				if !p.Tainted {
					mvr.Add(p.VR)
				}
			}
			for _, ei := range g.members {
				e := &eng.entries[ei]
				w.execute(e, s, mvr, true)
				if !e.window {
					// SBNN answers alias the scratch the next member reuses.
					e.poiBuf = append(e.poiBuf[:0], e.res.pois...)
					e.res.pois = e.poiBuf
				}
			}
			tickMVRPool.Put(mvr)
			core.PutScratch(s)
			return struct{}{}
		}
	}
	sweep.Run(w.Params.TickWorkers, cells)
}

// untaintedFP is an FNV-1a fingerprint of the ordered untainted VR
// sequence — the memo key's fast filter (untaintedVRsEqual confirms).
func untaintedFP(peers []core.PeerData) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range peers {
		if p.Tainted {
			continue
		}
		for _, f := range [4]float64{p.VR.Min.X, p.VR.Min.Y, p.VR.Max.X, p.VR.Max.Y} {
			b := math.Float64bits(f)
			for s := uint(0); s < 64; s += 8 {
				h ^= b >> s & 0xff
				h *= prime64
			}
		}
	}
	return h
}

// untaintedVRsEqual reports whether two peer lists carry the same
// untainted VR sequence (the memo key's exact comparison; sequence
// equality implies multiset equality).
func untaintedVRsEqual(a, b []core.PeerData) bool {
	i, j := 0, 0
	for {
		for i < len(a) && a[i].Tainted {
			i++
		}
		for j < len(b) && b[j].Tainted {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i].VR != b[j].VR {
			return false
		}
		i++
		j++
	}
}
