package sim

// Continuous moving queries (DESIGN.md §15): standing kNN / window
// subscriptions registered by moving hosts and maintained incrementally
// across ticks. Each subscription carries a safe-exit radius derived
// from the merged-verified-region boundary and the result-flip
// boundaries of its last exact answer (internal/core SafeExitKNN /
// SafeExitWindow): while the host has moved less than that radius and
// nothing taints the answer, the standing result is provably still
// exact and the tick costs no channel time at all (SafeRegionHits).
// Crossing the radius, an epoch advance, a TTL expiry, or an inexact
// previous answer forces a full re-verification — the subscription's
// shape through the same prepare and execute stages a one-shot query
// runs (pipeline.go), priced identically, but drawing nothing from the
// world stream.
//
// Determinism contract: registrations draw only from the dedicated
// contSeedSalt stream, and maintenance draws nothing (each
// subscription's k or window shape is fixed at registration), so the
// world stream w.rng is untouched whether the knob is armed or not.
// With ContinuousRate zero the layer is a nil pointer: zero draws, zero
// branches, zero counters — outputs stay bit-identical to the
// pre-continuous build. The whole phase runs before the tick's first
// one-shot query launches, one re-verification at a time in registration
// order.

import (
	"math"
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/trace"
)

// ContinuousKnobs configure standing subscriptions (see the top of this
// file, and LayerKnobs for the tags).
type ContinuousKnobs struct {
	// ContinuousRate arms the continuous-query layer (DESIGN.md §15): the
	// mean number of standing-subscription registrations per minute across
	// the whole system. Zero (the default) keeps every query a one-shot
	// snapshot — no subscription registry exists, no maintenance phase
	// runs, and every output is bit-identical to a build without the
	// layer. Nonzero registers moving hosts with standing kNN or window
	// queries (the run's Kind) whose answers are maintained incrementally:
	// each exact answer carries a safe-exit radius computed from the MVR
	// clearance and the known result-flip boundaries (internal/core
	// SafeExitKNN/SafeExitWindow), and the subscription re-runs the full
	// query path only when its host crosses that radius, an invalidation
	// epoch or VR TTL taints the answer, or the previous answer was not
	// exact (the Lemma 3.2 probabilistic demotion). Registration draws
	// come from a dedicated seeded stream, so arming the layer never
	// perturbs the legacy query draws.
	ContinuousRate float64 `json:"continuous_rate,omitempty" flag:"continuous-rate" usage:"continuous-subscription registrations per minute (0 = no standing queries)"`
	// ContinuousNaive forces every standing subscription to re-verify on
	// every tick instead of consulting its safe region — the baseline the
	// EXPERIMENTS.md continuous curve compares against. No effect without
	// ContinuousRate.
	ContinuousNaive bool `json:"continuous_naive,omitempty" flag:"continuous-naive" usage:"re-verify standing queries every tick instead of using safe regions (baseline)"`
}

// contReason classifies one subscription maintenance tick: why it
// re-verified, or that it did not (contHit). classify fixes the priority
// order (unverified > naive > taint > exit > hit), so the four reason
// counters in Stats partition Reverifies exactly.
type contReason int

const (
	// contUnverified: the previous answer was not exact (degraded rung or
	// Lemma 3.2 probabilistic tail) — it carries no safe region and must
	// re-verify every tick until an exact answer lands.
	contUnverified contReason = iota
	// contNaive: the ContinuousNaive baseline re-verifies unconditionally,
	// ignoring the safe region (the comparison arm of the experiments).
	contNaive
	// contTaint: an invalidation report advanced the database epoch past
	// the answer's, or the answer outlived the VR TTL.
	contTaint
	// contExit: the host moved at least the safe-exit radius from the
	// position the answer was verified at.
	contExit
	// contHit: none of the above — the standing answer is provably still
	// exact and the tick costs no query.
	contHit
)

// classify picks the first reason that applies, in priority order.
func classify(exact, naive, tainted, outside bool) contReason {
	switch {
	case !exact:
		return contUnverified
	case naive:
		return contNaive
	case tainted:
		return contTaint
	case outside:
		return contExit
	}
	return contHit
}

// subscription is one standing query: the registered shape (k for kNN,
// side/offset for windows — fixed for the subscription's lifetime), the
// last committed answer, and the safe-region state that decides whether
// the next tick is a hit or a re-verification.
type subscription struct {
	id   int // stable 1-based id, for traces
	host int

	k    int        // kNN cardinality (kNN worlds)
	side float64    // window side in miles (window worlds)
	off  geom.Point // window-center offset from the host position

	// answer is the last committed result set (owned by the
	// subscription, copied out of the core scratch at commit).
	answer []broadcast.POI
	// exact reports whether answer is provably correct (Verified, or
	// channel-resolved Broadcast). Inexact answers are the Lemma 3.2
	// probabilistic fallback: no safe region, re-verify next tick.
	exact bool
	// safeR is the safe-exit radius around anchor: while the host stays
	// strictly inside it and nothing taints the answer, the standing
	// result set is provably unchanged. Zero forces re-verification.
	safeR  float64
	anchor geom.Point
	// epoch is the database epoch the answer was verified against, and
	// bornSec the simulated time of the last re-verification (TTL taint).
	epoch   int64
	bornSec float64
}

// contState is the continuous-query layer: the subscription registry
// and the dedicated registration stream.
type contState struct {
	rng  *rand.Rand
	subs []subscription
	// candBuf stages the flattened untainted peer candidates handed to
	// the safe-exit computation, reused across re-verifications.
	candBuf []broadcast.POI
}

func newContState(p Params) *contState {
	return &contState{rng: rand.New(rand.NewSource(p.Seed ^ contSeedSalt))}
}

// advanceContinuous is the per-tick continuous phase: Poisson-distributed
// new registrations from the dedicated stream, then one maintenance pass
// over every standing subscription in registration order. A nil layer
// (knob off) returns immediately.
func (w *World) advanceContinuous(dt float64) {
	c := w.cont
	if c == nil {
		return
	}
	mean := w.Params.ContinuousRate / 60 * dt
	n := mobility.Poisson(c.rng, mean)
	for i := 0; i < n; i++ {
		w.registerSubscription()
	}
	for si := range c.subs {
		w.maintainSubscription(&c.subs[si])
	}
}

// registerSubscription draws one new standing query from the continuous
// stream: the subscribing host and the query shape — drawn as a one-shot
// query's is (drawK / drawWindow), but from the dedicated rng so the world
// stream never moves. The subscription starts inexact, so its first
// maintenance pass runs the initial full verification.
func (w *World) registerSubscription() {
	c := w.cont
	idx := c.rng.Intn(len(w.mob))
	c.rng.Int63() // the kept type draw (typeState)
	s := subscription{id: len(c.subs) + 1, host: idx}
	if w.Params.Kind == WindowQuery {
		var ok bool
		if s.side, s.off, ok = w.drawWindow(c.rng); !ok {
			return
		}
	} else {
		s.k = w.drawK(c.rng)
	}
	c.subs = append(c.subs, s)
	if w.counted() {
		w.stats.Subscriptions++
	}
}

// contTainted reports whether the subscription's standing answer has
// been invalidated by the consistency layer: the database epoch moved
// past the answer's, or the answer outlived the verified-region TTL.
func (w *World) contTainted(s *subscription) bool {
	if w.epoch() > s.epoch {
		return true
	}
	if ttl := w.Params.VRTTLSec; ttl > 0 && w.nowSec-s.bornSec > ttl {
		return true
	}
	return false
}

// maintainSubscription runs one tick of one subscription: classify the
// standing answer, then either run the full re-verification or take the
// safe-region hit — re-rank the standing set around the new position,
// zero channel cost.
func (w *World) maintainSubscription(s *subscription) {
	pos := w.mob[s.host].Pos
	reason := classify(s.exact, w.Params.ContinuousNaive, w.contTainted(s), pos.Dist(s.anchor) >= s.safeR)
	if reason != contHit {
		w.reverify(s, reason)
		return
	}
	// The host is strictly inside the safe-exit radius and nothing tainted
	// the answer, so the standing set is provably the exact result at the
	// new position. kNN sets may permute internally as the host moves —
	// re-rank by the current distance; window sets are order-free.
	if w.Params.Kind != WindowQuery {
		core.SortByDist(&w.qs.core, s.answer, pos)
	}
	if w.counted() {
		w.stats.SafeRegionHits++
		if w.SelfCheck {
			if w.Params.Kind == WindowQuery {
				w.checkWindow(geom.RectAround(pos.Add(s.off), s.side/2), s.answer)
			} else {
				w.checkKNN(pos, s.k, s.answer)
			}
		}
	}
}

// contCommit writes one re-verification's outcome into the subscription
// and the run counters, and emits the trace event. answer is copied out
// of the core scratch, so the subscription owns its set across ticks.
func (w *World) contCommit(s *subscription, reason contReason, answer []broadcast.POI,
	exact bool, safeR float64, slots int64, ev trace.Event) {
	s.answer = append(s.answer[:0], answer...)
	s.exact = exact
	s.safeR = safeR
	s.anchor = w.mob[s.host].Pos
	s.bornSec = w.nowSec
	s.epoch = w.epoch()
	if w.counted() {
		w.stats.Reverifies++
		switch reason {
		case contUnverified:
			w.stats.ReverifyUnverified++
		case contNaive:
			w.stats.ReverifyNaive++
		case contTaint:
			w.stats.ReverifyTaints++
		case contExit:
			w.stats.ReverifyExits++
		}
		if !exact {
			w.stats.ContDegraded++
		}
		w.stats.ContSlots += slots
		w.mx.observeReverifyCost(slots)
		ev.SafeRadiusMiles = safeR
		ev.Subscription = s.id
		w.record(ev)
	}
}

// reverify runs one subscription's full re-verification: the query
// pipeline (pipeline.go) over the subscription's fixed shape at the
// host's current position, plus the safe-exit radius of the new answer.
// It draws nothing from the world stream and counts toward the
// continuous counters, never Stats.Queries.
func (w *World) reverify(s *subscription, reason contReason) {
	var e query
	w.start(&e, s.host)
	e.standing = true
	// areaMargin > 0 means the translated window sits strictly inside the
	// service area: the safe-exit radius is additionally capped by it, so
	// every position inside the safe region keeps the window on the map.
	// Otherwise the window is clipped for this answer and the safe region
	// collapses (re-verify next tick).
	var areaMargin float64
	if w.Params.Kind == WindowQuery {
		win := geom.RectAround(e.q.Add(s.off), s.side/2)
		areaMargin = w.area.InnerGap(win)
		if areaMargin <= 0 {
			var ok bool
			if win, ok = win.Intersect(w.area); !ok {
				// The window drifted entirely off the map: an empty inexact
				// answer, re-checked next tick, with no channel work to price.
				w.contCommit(s, reason, nil, false, 0, 0, trace.Event{
					TimeSec: w.nowSec, Host: s.host, Kind: traceKinds[1][1], Outcome: "unanswered"})
				return
			}
		}
		e.shapeWindow(win)
	} else {
		w.shapeKNN(&e, s.k)
	}
	w.prepare(&e)
	w.execute(&e)

	// Inexact answers (approximate or degraded) are the Lemma 3.2
	// probabilistic path: no safe region, re-verify next tick.
	res := &e.res
	exact := res.exact()
	var safeR float64
	switch {
	case !exact:
	case !e.window:
		safeR = w.safeExitKNN(&e)
	case areaMargin > 0:
		safeR = math.Min(w.safeExitWindow(&e), areaMargin)
	}
	if w.counted() && w.SelfCheck && exact {
		w.selfCheck(&e)
	}
	w.contCommit(s, reason, res.pois, exact, safeR,
		res.access.Latency+e.spent+e.qc.chWait, w.traceEvent(&e, true))
	// The re-verification earns the same cacheable verified knowledge a
	// one-shot query does.
	w.cacheKnown(&e)
}

// safeExitKNN bounds how far the host may move before an exact kNN
// answer can change. The complete-knowledge region is the MVR for
// peer-verified answers, the known region for channel-resolved ones;
// inside q's clearance in it the candidate list is the whole database,
// so the bound is sound.
func (w *World) safeExitKNN(e *query) float64 {
	res := &e.res
	verified := res.outcome == core.OutcomeVerified
	return core.SafeExitKNN(&w.qs.core, e.q, res.pois, w.contCandidates(e.peers, res.known, verified),
		knowledge(res, verified))
}

// safeExitWindow bounds how far an exact, unclipped window may translate
// while staying inside complete knowledge — the MVR for covered windows,
// the known region for channel-resolved ones. Within that envelope the
// candidate list is the whole database near the window, so the
// boundary-distance bound is sound. Zero when the window is not covered.
func (w *World) safeExitWindow(e *query) float64 {
	res := &e.res
	verified := res.outcome == core.OutcomeVerified
	return core.SafeExitWindow(&w.qs.core, e.win, w.contCandidates(e.peers, res.known, verified),
		knowledge(res, verified))
}

// knowledge returns the complete-knowledge region of an exact answer as
// member rectangles: the MVR's for a peer-verified one, the known region
// for a channel-resolved one.
func knowledge(res *queryResult, verified bool) []geom.Rect {
	if verified {
		return res.mvr.Rects()
	}
	return []geom.Rect{res.knownRegion}
}

// contCandidates returns the candidate POI set the safe-exit bounds
// range over. For a peer-verified answer that is the flattened POI
// lists of every untainted contribution — complete within the MVR, the
// region the clearance disk/envelope is confined to. For a
// channel-resolved answer the known-region POIs are already complete
// within the clearance envelope. Duplicates are harmless (the bounds
// take minima) and the staging buffer is reused across
// re-verifications.
func (w *World) contCandidates(peers []core.PeerData, known []broadcast.POI, verified bool) []broadcast.POI {
	if !verified {
		return known
	}
	buf := w.cont.candBuf[:0]
	for _, pd := range peers {
		if pd.Tainted {
			continue
		}
		buf = append(buf, pd.POIs...)
	}
	w.cont.candBuf = buf
	return buf
}
