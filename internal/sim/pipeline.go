package sim

import (
	"math"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/trace"
	"lbsq/internal/trust"
)

// The query pipeline (DESIGN.md §14). Every query the simulator runs — a
// one-shot kNN or window query, or a standing subscription's
// re-verification — is one query value passing through three stages, one
// query at a time, in draw order:
//
//	prepare  assess channel → sync IR → overload-gated collect → admit
//	         (reach cut, consistency gate) → trust screen. Consumes the
//	         injector, trust and consistency streams; touches peer caches,
//	         queues, buckets, breakers.
//	execute  SBNN or SBWQ, chosen by shape, on the World's core scratch.
//	         Pure: reads only the query and state frozen for the tick.
//	commit   outcome counters, budget, baseline pricing, self-check, trace
//	         event, metrics, cache insert.
//
// Callers differ only in who supplies the shape (drawn from the world
// stream, or fixed at subscription time) and what commit adds (a standing
// query's safe-exit radius and counters, continuous.go).

// query is one query in flight: its shape, everything prepare learned,
// and the execute stage's result.
type query struct {
	idx int
	q   geom.Point
	// Shape: k for a kNN query, win for a window query. relevance bounds
	// which cached regions can matter (the window itself, or a square
	// around q sized by knnRelevanceRadius).
	window    bool
	k         int
	win       geom.Rect
	relevance geom.Rect
	standing  bool // a subscription's re-verification (continuous.go)

	qc      queryChannel
	irSlots int64
	// peers is the screened collection result. It aliases World scratch,
	// the trust engine's rows or the coalescing donor table, and is valid
	// only until the next prepare; the POI slices inside alias cache
	// storage, the World arena or the trust engine's (§9.1).
	peers     []core.PeerData
	nPeers    int
	spent     int64 // backoff + rung-switch + IR-listen + audit slots (the latency term)
	minBorn   int64 // oldest own-cache Born stamp offered (staleBound)
	trep      trust.Report
	shed      shedCause
	coalesced bool
	sched     *broadcast.Schedule // nil on the channel-less rungs
	now       int64               // the algorithm's slot clock

	res queryResult
}

// queryResult is what commit consumes of an SBNN or SBWQ result. pois
// aliases the executing scratch for kNN queries (fresh for windows), and
// mvr — the merged verified region, read only by a standing query's
// safe-exit bound — always does; known is always fresh storage, safe to
// cache.
type queryResult struct {
	outcome     core.Outcome
	access      broadcast.Access
	knownRegion geom.Rect
	known       []broadcast.POI
	pois        []broadcast.POI
	mvr         *geom.RectUnion
	merged      int
	examined    int
	// degraded: a channel-less rung that could not verify — the best
	// peer-side knowledge (Lemma 3.2 confidence at most) or, with no POIs
	// at all, an unanswered query. The channel was never touched.
	degraded bool
}

// exact reports whether pois is provably the true answer: verified from
// peer knowledge or resolved on a live channel.
func (r *queryResult) exact() bool {
	return !r.degraded && r.outcome != core.OutcomeApproximate
}

// start resets e to a query by host idx.
func (w *World) start(e *query, idx int) {
	*e = query{idx: idx, q: w.mob[idx].Pos}
}

func (w *World) shapeKNN(e *query, k int) {
	e.k = k
	e.relevance = geom.RectAround(e.q, w.knnRelevanceRadius(k))
}

func (e *query) shapeWindow(win geom.Rect) {
	e.window, e.win, e.relevance = true, win, win
}

// launch runs one one-shot query by host idx: shape from the world
// stream, then prepare, execute and commit.
func (w *World) launch(idx int) {
	e := &w.qs.cur
	w.start(e, idx)
	if w.Params.Kind == WindowQuery {
		side, off, ok := w.drawWindow(w.rng)
		if !ok {
			return
		}
		// A one-shot window's center is clipped to the service area (a
		// subscription keeps its offset, continuous.go).
		win, ok := geom.RectAround(w.area.Clip(e.q.Add(off)), side/2).Intersect(w.area)
		if !ok {
			return
		}
		e.shapeWindow(win)
	} else {
		w.shapeKNN(e, w.drawK(w.rng))
	}
	w.prepare(e)
	if w.CompareBaseline && w.counted() {
		w.rng.Float64() // the kept baseline coin (typeState)
	}
	w.execute(e)
	w.commit(e)
}

// prepare runs the pre-algorithm stage for a shaped query. A standing
// query takes the same path; collect turns the one-shot overload gates
// (coalesce, admission, governor, retry budget, donation) into
// pass-throughs for it.
func (w *World) prepare(e *query) {
	// The one place the arena is rewound (DESIGN.md §9.1): it backs the
	// peers of the query in flight until that query commits.
	w.qs.arena.Rewind()
	e.qc = w.assessChannel(e.idx)
	e.irSlots = w.syncIR(e.idx)
	w.collect(e)
	// The blackout rungs have no channel to fall back to; the core
	// algorithms answer from peer knowledge alone.
	if e.qc.mode != modeP2POnly && e.qc.mode != modeOwnCache {
		e.sched = w.data.sched
	}
	// Slots spent in retry backoff, IR listens and audits delay the
	// client's arrival on the broadcast channel, as does a naive-mode
	// blackout stall.
	e.now = w.slotNow() + e.spent + e.qc.chWait
}

// collect gathers and screens the query's peer knowledge: the overload
// gates in front of the mode-dispatched gather, then admission and the
// trust screen. A standing re-verification is priority traffic under
// overload: never coalesced, admission-denied or governor-shed, it
// donates nothing, and its retries bypass the retry budget. Peer-side
// BUSY backpressure still applies — a saturated peer cannot tell
// subscribers from one-shots.
func (w *World) collect(e *query) {
	e.minBorn = math.MaxInt64
	gathered := false
	collected := e.qc.switchCost() // plus the gather's retry backoff
	switch e.qc.mode {
	case modeFull, modeP2POnly:
		if d := w.coalesceLookup(e.q, e.relevance); d != nil && !e.standing {
			// Reuse the donor's screened set where it lies: no gather, no
			// re-screen — the donor already paid collection and audits for
			// this neighborhood this tick.
			e.peers, e.nPeers = d.peers, d.nPeers
			e.coalesced = true
			if w.counted() {
				w.stats.Coalesced++
			}
			e.spent = collected + e.irSlots
			return
		}
		if ok, cause := w.admitOneShot(e.idx, e.standing); !ok {
			// Shed: own cache plus broadcast only — the Lemma 3.2 /
			// on-air path, exact answers at broadcast latency.
			e.shed = cause
			e.minBorn = w.collectOwnCacheOnly(e.idx, e.relevance, false)
			break
		}
		var backoff int64
		e.nPeers, backoff = w.gather(e.idx, e.relevance, e.standing)
		collected += backoff
		gathered = true
	default:
		// The P2P channel is in a deep fade: spending the retry budget on
		// peers that cannot hear is pure waste, so the lower rungs skip
		// the wire entirely.
		e.minBorn = w.collectOwnCacheOnly(e.idx, e.relevance, e.qc.mode == modeOwnCache)
	}
	// The reach cut spares the per-region work of the consistency gate and
	// the trust screen; with neither armed NNV's own cut is all there is to
	// do. A standing query reads the full MVR's clearance and every
	// contribution, and a donor's set must serve queries at other points:
	// both keep the static square (DESIGN.md §9.3 "The reach cut").
	cut := !e.window && !e.standing && (w.tr != nil || w.cons != nil) && !(gathered && w.donates())
	w.admit(e, cut)
	e.peers, e.spent, e.trep = w.trustScreen(collected+e.irSlots, e.qc.bcastUp)
	if gathered && !e.standing {
		w.coalesceDonate(e.q, e.relevance, e.peers, e.nPeers)
	}
}

// execute runs the core algorithm for e on the World's core scratch. It
// writes only e.res and the scratch.
func (w *World) execute(e *query) {
	r, s := &e.res, &w.qs.core
	if e.window {
		// Cap cached retrieval regions at what the cache can hold:
		// CacheSize POIs cover about CacheSize/lambda square miles.
		cfg := core.SBWQConfig{
			MaxKnownArea: 1.5 * float64(w.Params.CacheSize) / math.Max(w.data.lambda, 1e-9),
		}
		res := core.SBWQScratch(s, e.q, e.win, e.peers, cfg, e.sched, e.now)
		*r = queryResult{outcome: res.Outcome, access: res.Access,
			knownRegion: res.KnownRegion, known: res.Known, pois: res.POIs,
			mvr: res.MVR, merged: res.Merged, examined: res.Examined}
	} else {
		cfg := core.SBNNConfig{
			K:                 e.k,
			Lambda:            w.data.lambda,
			AcceptApproximate: w.Params.AcceptApproximate,
			MinCorrectness:    w.Params.MinCorrectness,
		}
		res := core.SBNNScratch(s, e.q, e.peers, cfg, e.sched, e.now)
		*r = queryResult{outcome: res.Outcome, access: res.Access,
			knownRegion: res.KnownRegion, known: res.Known, pois: res.POIs,
			mvr: res.MVR, merged: res.Merged, examined: res.Examined}
	}
	r.degraded = e.sched == nil && r.outcome == core.OutcomeBroadcast
}

// commit is the one-shot post-algorithm stage.
func (w *World) commit(e *query) {
	res := &e.res
	if w.counted() {
		// The slots the P2P phase burned are part of the query's end-to-end
		// access latency, as is the dead air a naive client spent waiting
		// out a blackout window. latency is the query's term of
		// Stats.LatencySlots: total when the channel resolved it, else zero.
		total := res.access.Latency + e.spent + e.qc.chWait
		var latency int64
		w.stats.Queries++
		w.stats.peersSum += int64(e.nPeers)
		switch {
		case res.degraded && len(res.pois) > 0:
			w.stats.Degraded++
		case res.degraded:
			w.stats.Unanswered++
		case res.outcome == core.OutcomeVerified:
			w.stats.Verified++
		case res.outcome == core.OutcomeApproximate:
			w.stats.Approximate++
		default:
			w.stats.Broadcast++
			latency = total
			w.stats.TuningSlots += res.access.Tuning
			w.stats.PacketsRead += int64(res.access.PacketsRead)
			w.stats.PacketsSkipped += int64(res.access.PacketsSkipped)
			w.stats.Retransmissions += int64(res.access.Retransmissions)
			w.stats.IndexRetries += int64(res.access.IndexRetries)
		}
		w.stats.LatencySlots += latency
		if w.chanArmed || w.govSteering() {
			w.observeBudget(total, !res.degraded || len(res.pois) > 0, e.shed != shedNone)
		}
		if w.CompareBaseline {
			// Price the same query on the plain on-air algorithm. On a
			// lossy channel this consumes the schedule's reception-error
			// stream, so it must directly follow this query's execute.
			var acc broadcast.Access
			if e.window {
				_, _, _, acc = w.data.sched.Window(&w.qs.baseline, []geom.Rect{e.win}, w.slotNow())
			} else {
				_, _, acc = w.data.sched.KNN(&w.qs.baseline, e.q, e.k, w.slotNow(), broadcast.Bounds{})
			}
			w.stats.BaselineLatencySlots += acc.Latency
			w.stats.BaselinePackets += int64(acc.PacketsRead)
			w.stats.BaselineSampled++
		}
		if w.SelfCheck && res.exact() {
			w.selfCheck(e)
		}
		ev := w.traceEvent(e, false)
		ev.StaleBoundSec = w.staleBound(e.qc.mode, e.minBorn)
		ev.Shed, ev.Coalesced = e.shed.String(), e.coalesced
		if w.mx != nil {
			w.mx.observeQuery(e, latency, &ev)
		}
		w.record(ev)
	}
	if w.commitHook != nil {
		w.commitHook(e)
	}
	w.cacheKnown(e)
}

// traceKinds is indexed [standing][window].
var traceKinds = [2][2]string{{"knn", "window"}, {"cont-knn", "cont-window"}}

// traceEvent builds the trace record every executed query shares.
func (w *World) traceEvent(e *query, standing bool) trace.Event {
	kind := traceKinds[0]
	if standing {
		kind = traceKinds[1]
	}
	res, trep := &e.res, &e.trep
	ev := trace.Event{
		TimeSec: w.nowSec, Host: e.idx, Kind: kind[0],
		Outcome: outcomeLabel(res.outcome, res.degraded, len(res.pois)), K: e.k, Peers: e.nPeers,
		LatencySlots: res.access.Latency, TuningSlots: res.access.Tuning,
		PacketsRead: res.access.PacketsRead, PacketsSkipped: res.access.PacketsSkipped,
		Audits: trep.Audits, AuditFailures: trep.AuditFailures,
		Conflicts: trep.Conflicts, AuditSlots: trep.AuditSlots,
		TaintedPeers: trep.Tainted,
		IRSlots:      e.irSlots, StaleConflicts: trep.StaleConflicts,
		Mode: e.qc.mode.String(), WaitSlots: e.qc.chWait,
	}
	if e.window {
		ev.Kind = kind[1]
	}
	return ev
}

// selfCheck compares e's answer with the R-tree ground truth.
func (w *World) selfCheck(e *query) {
	if e.window {
		w.checkWindow(e.win, e.res.pois)
	} else {
		w.checkKNN(e.q, e.k, e.res.pois)
	}
}

// cacheKnown stores the verified knowledge the query gained (Section 4.1
// cache policies) — the search square, the window, or the larger
// collective MBR of a broadcast retrieval — stamped with the epoch it
// was verified against.
func (w *World) cacheKnown(e *query) {
	if e.res.knownRegion.Empty() {
		return
	}
	reg := cache.Region{Rect: e.res.knownRegion, POIs: e.res.known, Epoch: w.epoch()}
	w.caches[e.idx].Insert(reg, e.q, w.mob[e.idx].Heading(), int64(w.nowSec))
}
