package sim

import (
	"math"
	"sync"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/sweep"
	"lbsq/internal/trace"
	"lbsq/internal/trust"
)

// The batched per-tick query engine (DESIGN.md §14). With
// Params.TickWorkers > 1 each tick's Poisson query batch runs in three
// phases instead of the seed's one-query-at-a-time loop:
//
//	draw    (serial)   consume every random stream — world, injector,
//	                   trust, consistency — in exactly the legacy
//	                   per-query order, collecting peers and producing an
//	                   immutable tickEntry per query;
//	execute (parallel) run the pure core algorithms (SBNN/SBWQ) for all
//	                   entries across TickWorkers workers under the
//	                   internal/sweep determinism contract, sharing
//	                   memoized merged verified regions between entries
//	                   with identical untainted VR multisets;
//	commit  (serial)   replay the legacy post-algorithm tail — stats,
//	                   baseline pricing, self-checks, traces, metrics,
//	                   cache inserts — in query order.
//
// Identity argument. The only state the execute phase reads is frozen
// for the duration of a tick (host positions, schedules, epochs, the
// entry's own peer snapshot), and the core algorithms are pure. Draw
// and commit both run serially in query order, so every random stream
// and every order-dependent side effect (trace lines, metric
// histograms, cache mutations) is consumed or produced in the legacy
// sequence. The one coupling between queries of the same tick — a
// query's commit inserting a cache region that a later query's draw
// could read — is broken by the conflict flush: before drawing a query
// that could observe any pending entry's commit (same data type and
// same host or within multi-hop radio reach), the engine executes and
// commits everything pending. Two exceptions force the serial path per
// flush: a lossy broadcast channel (the schedule's reception-error
// stream must be consumed in the legacy [algorithm, baseline] per-query
// order), handled by executing entries serially at commit time.
//
// Memoization. Entries whose untainted VR multisets match share one
// merged RectUnion (Stats.MVRMemoHits). This rests on the RectUnion
// purity contract: the union's observable state is a function of its
// member multiset alone, never of the instance's history
// (TestRectUnionOrderIndependence, TestScratchMVRVariantsMatch).

// tickResult is the sanitized outcome of one entry's execute phase:
// exactly the algorithm-result fields the commit phase consumes, with
// no aliasing of worker scratch (POIs are copied into entry-owned
// storage; Known is algorithm-allocated fresh storage by contract).
type tickResult struct {
	outcome     core.Outcome
	access      broadcast.Access
	knownRegion geom.Rect
	known       []broadcast.POI
	pois        []broadcast.POI
	merged      int
	examined    int
}

// tickEntry is one drawn query: every input the execute phase needs and
// every draw-phase fact the commit phase replays. Entries are reused
// across ticks (the slices keep their capacity).
type tickEntry struct {
	idx, ti int
	q       geom.Point
	k       int       // kNN runs
	win     geom.Rect // window runs

	qc        queryChannel
	irSlots   int64
	nPeers    int
	collected int64 // backoff + rung-switch slots (the metrics "spent")
	spent     int64 // collected + irSlots + audit slots (the latency term)
	minBorn   int64
	shed      shedCause // overload shed verdict (overload.go)
	coalesced bool      // reused a co-located donor's gather
	now       int64     // slotNow + spent + chWait, the algorithm's clock
	trep      trust.Report
	sched     *broadcast.Schedule // nil on the channel-less rungs
	sbnnCfg   core.SBNNConfig
	sbwqCfg   core.SBWQConfig

	// baselineSampled records the pre-drawn baseline coin (the rng
	// draw happens at its legacy stream position, during the serial
	// draw phase); the pure schedule pricing runs at commit.
	baselineSampled bool
	// peerBytes snapshots Stats.PeerBytes at the end of this entry's
	// draw — the value the legacy loop would observe at commit time.
	peerBytes int64

	fp     uint64          // fingerprint of the untainted VR sequence
	peers  []core.PeerData // entry-owned snapshot of the screened peers
	poiBuf []broadcast.POI // entry-owned copy-out buffer for SBNN POIs
	res    tickResult
}

// tickGroup is one memo group: entries sharing an untainted VR
// multiset, hence one merged verified region.
type tickGroup struct {
	rep     int   // entry index of the representative
	members []int // entry indices, batch order (rep first)
}

// tickEngine holds the batch state and reusable buffers of the batched
// tick path. Owned by the World's goroutine except during the execute
// phase, when workers write disjoint entries' res/poiBuf fields.
type tickEngine struct {
	entries []tickEntry
	n       int
	groups  []tickGroup
	nGroups int

	fpIdx map[uint64][]int // fingerprint → group indices

	workers   int
	serialAir bool // lossy broadcast channel: execute serially at commit
}

// tickMVRPool recycles the per-group merged verified regions across
// flushes and worker goroutines.
var tickMVRPool = sync.Pool{New: func() any { return new(geom.RectUnion) }}

func (eng *tickEngine) alloc() *tickEntry {
	if eng.n == len(eng.entries) {
		eng.entries = append(eng.entries, tickEntry{})
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

// stepBatch is the batched replacement for Step's query loop: identical
// rng consumption, identical output, parallel algorithm execution. The
// nCrowd flash-crowd queries draw after the legacy batch, host and type
// from the crowd stream, mirroring the serial path's ordering exactly.
func (w *World) stepBatch(n, nCrowd int) {
	eng := &w.eng
	eng.workers = w.Params.TickWorkers
	eng.serialAir = w.Params.Faults.Normalized().BroadcastLoss > 0
	if eng.fpIdx == nil {
		eng.fpIdx = make(map[uint64][]int)
	}
	eng.n = 0
	for q := 0; q < n; q++ {
		idx := w.rng.Intn(len(w.hosts))
		ti := w.rng.Intn(len(w.types))
		if eng.conflicts(w, idx, ti) {
			w.flushBatch()
		}
		w.drawQuery(idx, ti)
	}
	for q := 0; q < nCrowd; q++ {
		idx, ti := w.crowdPick()
		if w.counted() {
			w.stats.CrowdQueries++
		}
		if eng.conflicts(w, idx, ti) {
			w.flushBatch()
		}
		w.drawQuery(idx, ti)
	}
	w.flushBatch()
}

// drawQuery is the pre-algorithm half of runKNNQuery/runWindowQuery:
// every random draw and every serial-order side effect (channel
// assessment, IR sync, peer collection, trust screening) in the legacy
// order, captured into a tickEntry. The baseline sampling coin is
// pre-drawn here — it is the only world-rng draw the legacy loop makes
// after the algorithm, and nothing between the algorithm and that draw
// consumes the stream, so its position is unchanged.
func (w *World) drawQuery(idx, ti int) {
	h := &w.hosts[idx]
	ts := &w.types[ti]
	q := h.mob.Pos
	var (
		k         int
		win       geom.Rect
		relevance geom.Rect
	)
	if w.Params.Kind == WindowQuery {
		var ok bool
		win, ok = w.drawWindow(q)
		if !ok {
			return
		}
		relevance = win
	} else {
		k = w.drawK()
		relevance = geom.RectAround(q, w.knnRelevanceRadius(ti, k))
	}
	qc := w.assessChannel(idx)
	irSlots := w.syncIR(idx, ti)
	// The overload-aware collection pipeline (overload.go), in the
	// serial draw phase so every admission/coalesce/queue decision is
	// tick-worker identical by construction.
	cr := w.collectQuery(idx, ti, relevance, qc, irSlots)
	peers := cr.peers

	sched := ts.sched
	if qc.mode == modeP2POnly || qc.mode == modeOwnCache {
		sched = nil
	}

	e := w.eng.alloc()
	e.idx, e.ti, e.q, e.k, e.win = idx, ti, q, k, win
	e.qc, e.irSlots, e.nPeers = qc, irSlots, cr.nPeers
	e.collected, e.spent, e.minBorn = cr.collected, cr.spent, cr.minBorn
	e.trep, e.sched = cr.trep, sched
	e.shed, e.coalesced = cr.shed, cr.coalesced
	e.now = w.slotNow() + cr.spent + qc.chWait
	if w.Params.Kind == WindowQuery {
		e.sbwqCfg = core.SBWQConfig{
			MaxKnownArea: 1.5 * float64(w.Params.CacheSize) / math.Max(ts.lambda, 1e-9),
		}
	} else {
		e.sbnnCfg = core.SBNNConfig{
			K:                 k,
			Lambda:            ts.lambda,
			AcceptApproximate: w.Params.AcceptApproximate,
			MinCorrectness:    w.Params.MinCorrectness,
		}
	}
	// Entry-owned snapshot: the top-level slice is copied; the POI
	// slices inside alias cache storage that is immutable until a
	// conflicting flush (see core.PeerData and the conflict predicate).
	e.peers = append(e.peers[:0], peers...)
	e.baselineSampled = false
	if w.CompareBaseline && w.counted() {
		rate := w.BaselineSampleRate
		if rate <= 0 {
			rate = 0.2
		}
		e.baselineSampled = w.rng.Float64() <= rate
	}
	e.peerBytes = w.stats.PeerBytes
	e.fp = untaintedFP(e.peers)
}

// flushBatch executes and commits every pending entry, in batch order.
func (w *World) flushBatch() {
	eng := &w.eng
	if eng.n == 0 {
		return
	}
	if eng.serialAir || eng.n == 1 {
		// Serial-air: the schedule's reception-error stream is consumed by
		// both the algorithm and the baseline pricing; the legacy order is
		// [algorithm_i, baseline_i, algorithm_i+1, ...], so each entry
		// executes serially immediately before its commit. Single-entry
		// batches take the same path because the parallel plumbing can
		// neither share an MVR nor overlap work — the outputs (memo
		// counters included) are identical, without the group-planning and
		// dispatch overhead.
		for i := 0; i < eng.n; i++ {
			e := &eng.entries[i]
			w.execSerial(e)
			w.commitEntry(e)
		}
	} else {
		w.planGroups()
		w.executeBatch()
		for i := 0; i < eng.n; i++ {
			w.commitEntry(&eng.entries[i])
		}
	}
	eng.n = 0
}

// execSerial runs one entry through the classic scratch path (the
// serial-air fallback), sanitizing the result exactly like the
// parallel path does.
func (w *World) execSerial(e *tickEntry) {
	if w.Params.Kind == WindowQuery {
		res := core.SBWQScratch(&w.qs.core, e.q, e.win, e.peers, e.sbwqCfg, e.sched, e.now)
		e.res = tickResult{outcome: res.Outcome, access: res.Access,
			knownRegion: res.KnownRegion, known: res.Known, pois: res.POIs,
			merged: res.Merged, examined: res.Examined}
		return
	}
	res := core.SBNNScratch(&w.qs.core, e.q, e.peers, e.sbnnCfg, e.sched, e.now)
	e.poiBuf = append(e.poiBuf[:0], res.POIs...)
	e.res = tickResult{outcome: res.Outcome, access: res.Access,
		knownRegion: res.KnownRegion, known: res.Known, pois: e.poiBuf,
		merged: res.Merged, examined: res.Examined}
}

// planGroups partitions the batch into memo groups (identical untainted
// VR multisets). Runs serially, so the memo counter and the
// deterministic first-appearance group order cost no synchronization.
func (w *World) planGroups() {
	eng := &w.eng
	eng.nGroups = 0
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
// and every member entry runs the core algorithm against the shared
// prebuilt union. Cells own all their mutable state (pooled scratch,
// pooled RectUnion, their entries' result fields), satisfying the sweep
// determinism contract.
func (w *World) executeBatch() {
	eng := &w.eng
	isWindow := w.Params.Kind == WindowQuery

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
				if isWindow {
					res := core.SBWQScratchMVR(s, mvr, true, e.q, e.win, e.peers, e.sbwqCfg, e.sched, e.now)
					e.res = tickResult{outcome: res.Outcome, access: res.Access,
						knownRegion: res.KnownRegion, known: res.Known, pois: res.POIs,
						merged: res.Merged, examined: res.Examined}
				} else {
					res := core.SBNNScratchMVR(s, mvr, true, e.q, e.peers, e.sbnnCfg, e.sched, e.now)
					e.poiBuf = append(e.poiBuf[:0], res.POIs...)
					e.res = tickResult{outcome: res.Outcome, access: res.Access,
						knownRegion: res.KnownRegion, known: res.Known, pois: e.poiBuf,
						merged: res.Merged, examined: res.Examined}
				}
			}
			tickMVRPool.Put(mvr)
			core.PutScratch(s)
			return struct{}{}
		}
	}
	sweep.Run(eng.workers, cells)
}

// commitEntry replays the legacy post-algorithm tail for one entry:
// statistics, availability accounting, baseline pricing, self-checks,
// the trace event, metrics observation, and the cache insert — in the
// exact order runKNNQuery/runWindowQuery perform them.
func (w *World) commitEntry(e *tickEntry) {
	h := &w.hosts[e.idx]
	ts := &w.types[e.ti]
	res := &e.res
	isWindow := w.Params.Kind == WindowQuery
	degraded := e.sched == nil && res.outcome == core.OutcomeBroadcast

	if w.counted() {
		w.stats.Queries++
		w.stats.peersSum += int64(e.nPeers)
		switch {
		case degraded && len(res.pois) > 0:
			w.stats.Degraded++
		case degraded:
			w.stats.Unanswered++
		case res.outcome == core.OutcomeVerified:
			w.stats.Verified++
		case !isWindow && res.outcome == core.OutcomeApproximate:
			w.stats.Approximate++
		default:
			w.stats.Broadcast++
			w.stats.LatencySlots += res.access.Latency + e.spent + e.qc.chWait
			w.stats.TuningSlots += res.access.Tuning
			w.stats.PacketsRead += int64(res.access.PacketsRead)
			w.stats.PacketsSkipped += int64(res.access.PacketsSkipped)
			w.stats.Retransmissions += int64(res.access.Retransmissions)
			w.stats.IndexRetries += int64(res.access.IndexRetries)
		}
		if w.chanArmed || w.govSteering() {
			w.observeBudget(ts, res.access.Latency+e.spent+e.qc.chWait, !degraded || len(res.pois) > 0, e.shed != shedNone)
		}
		if e.baselineSampled {
			// The coin was drawn at its legacy stream position (draw
			// phase); the pricing itself is a pure schedule lookup on a
			// loss-free channel (serialAir otherwise forces this whole
			// path serial, preserving the loss-stream order).
			var acc broadcast.Access
			if isWindow {
				_, acc = ts.sched.Window(e.win, w.slotNow())
			} else {
				_, acc = ts.sched.KNN(e.q, e.k, w.slotNow())
			}
			w.stats.BaselineLatencySlots += acc.Latency
			w.stats.BaselinePackets += int64(acc.PacketsRead)
			w.stats.BaselineSampled++
		}
		if w.SelfCheck && !degraded {
			if isWindow {
				w.checkWindow(e.ti, e.win, res.pois)
			} else if res.outcome != core.OutcomeApproximate {
				w.checkKNN(e.ti, e.q, e.k, res.pois)
			}
		}
		ev := trace.Event{
			TimeSec: w.nowSec, Host: e.idx, Kind: "knn",
			Outcome: outcomeLabel(res.outcome, degraded, len(res.pois)), Peers: e.nPeers,
			LatencySlots: res.access.Latency, TuningSlots: res.access.Tuning,
			PacketsRead: res.access.PacketsRead, PacketsSkipped: res.access.PacketsSkipped,
			Audits: e.trep.Audits, AuditFailures: e.trep.AuditFailures,
			Conflicts: e.trep.Conflicts, AuditSlots: e.trep.AuditSlots,
			TaintedPeers: e.trep.Tainted,
			IRSlots:      e.irSlots, StaleConflicts: e.trep.StaleConflicts,
			Mode: e.qc.mode.String(), WaitSlots: e.qc.chWait,
		}
		if isWindow {
			ev.Kind = "window"
		} else {
			ev.K = e.k
		}
		ev.StaleBoundSec = w.staleBound(e.qc.mode, e.minBorn)
		ev.Shed, ev.Coalesced = e.shed.String(), e.coalesced
		if w.mx != nil {
			w.net.ObserveFanout(e.nPeers)
			w.mx.observeQuery(res.outcome, e.collected, e.trep.AuditSlots+e.irSlots, res.access,
				res.merged, res.examined, res.knownRegion, e.peerBytes)
			w.mx.observeTrust(e.trep)
			w.mx.observeChannel(e.qc, degraded, len(res.pois) == 0)
			w.mx.spanFields(&ev.SpanP2PSlots, &ev.SpanMergeWork,
				&ev.SpanVerifyWork, &ev.SpanTuneSlots, &ev.SpanDownloadSlots)
		}
		w.record(ev)
	}

	if !res.knownRegion.Empty() {
		reg := cache.Region{Rect: res.knownRegion, POIs: res.known}
		if w.cons != nil {
			reg.Epoch = w.cons.types[e.ti].epoch
		}
		h.caches[e.ti].Insert(reg, e.q, h.mob.Heading(), int64(w.nowSec))
	}
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
