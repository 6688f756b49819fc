package sim

import (
	"math"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/trust"
)

// The degraded-mode query planner (DESIGN.md §13). Each query classifies
// its connectivity and picks a rung of the fallback ladder:
//
//	broadcast up, peers up   → modeFull      (the whole protocol)
//	broadcast down, peers up → modeP2POnly   (sharing only; probabilistic
//	                                          Lemma 3.2 answers allowed)
//	broadcast up, peers down → modeOnAirOnly (skip the P2P phase, tune in)
//	both down                → modeOwnCache  (serve from the host's own
//	                                          cache with an explicit
//	                                          staleness bound)
//
// The broadcast downlink is down when the host sits inside one of its
// scheduled blackout windows; the P2P channel is down when the
// Gilbert–Elliott chain is in a deep fade (bad-state loss at or above
// faults.DeepFadeLoss — retries are near-certain to burn the budget for
// nothing). With the planner off, every query runs modeFull: a dark
// downlink stalls it until the window ends (the naive baseline the
// EXPERIMENTS.md availability curve compares against), and a deep fade is
// simply a very lossy collection round.

// ChannelKnobs select how queries meet the correlated channel impairments
// of Faults.Burst*/Blackout* (DESIGN.md §13).
type ChannelKnobs struct {
	// DegradedMode arms the degraded-mode query planner (DESIGN.md §13):
	// each query classifies its connectivity (broadcast downlink up/down ×
	// P2P channel up/down) and walks the fallback ladder — full protocol →
	// P2P-only with Lemma 3.2 probabilistic answers → on-air-only →
	// serve-from-own-cache with an explicit staleness bound. Off (the
	// default), queries run the full protocol unconditionally: a dark
	// downlink stalls them until the blackout window ends, and a deep fade
	// burns the whole retry budget against unreachable peers. The planner
	// only changes behavior when the burst or blackout knobs
	// (Faults.Burst*/Blackout*) create impairments to classify; with those
	// zero every query classifies as fully connected and output is
	// bit-identical to a build without the planner.
	DegradedMode bool `json:"degraded_mode,omitempty" flag:"degraded" usage:"arm the degraded-mode query planner (fallback ladder instead of naive stalls)"`
}

// queryMode is one rung of the fallback ladder.
type queryMode int

const (
	modeFull queryMode = iota
	modeP2POnly
	modeOnAirOnly
	modeOwnCache
)

// String implements fmt.Stringer; modeFull renders empty so trace events
// of fully-connected queries omit the field (zero-knob byte identity).
func (m queryMode) String() string {
	switch m {
	case modeP2POnly:
		return "p2p-only"
	case modeOnAirOnly:
		return "onair-only"
	case modeOwnCache:
		return "own-cache"
	default:
		return ""
	}
}

// ModeSwitchSlots is the broadcast-slot price of stepping one rung down
// the ladder: the client re-plans, re-tunes its radio, and abandons
// in-flight protocol state. Charged per rung of depth against the query's
// deadline budget, so a deadline-constrained query can genuinely prefer a
// shallower rung.
const ModeSwitchSlots = 2

// depth is how many rungs below the full protocol the mode sits.
func (m queryMode) depth() int64 {
	switch m {
	case modeP2POnly, modeOnAirOnly:
		return 1
	case modeOwnCache:
		return 2
	default:
		return 0
	}
}

// queryChannel is one query's connectivity assessment.
type queryChannel struct {
	mode queryMode
	// chWait is the naive-mode stall: with the planner off and the
	// downlink dark, the query waits out the blackout window before
	// tuning in. Zero whenever the planner is on or the downlink is up.
	chWait int64
	// bcastUp reports whether the host's broadcast downlink is live (it
	// gates IR listens and on-air spot audits either way).
	bcastUp bool
}

// switchCost is the deadline-priced cost of reaching this rung.
func (qc queryChannel) switchCost() int64 {
	return qc.mode.depth() * ModeSwitchSlots
}

// assessChannel classifies one query's connectivity before collection.
// It advances the fading chain to the current slot (a no-op with the
// burst knobs off) and tracks per-host blackout transitions so
// reacquisition is observable (BlackoutRecoveries). With every channel
// knob off this returns the fully-connected assessment with zero draws
// and zero counter movement.
func (w *World) assessChannel(idx int) queryChannel {
	w.inj.Sync(w.slotNow())
	qc := queryChannel{mode: modeFull, bcastUp: true}
	if w.blackout != nil {
		down := w.blackout.Down(idx, w.nowSec)
		if down != w.chanDown[idx] {
			if !down {
				// Reacquisition: the host left its blackout window. Its
				// missed invalidation reports replay at the next syncIR
				// (the epoch lag is repaired or demoted there).
				w.stats.BlackoutRecoveries++
			}
			w.chanDown[idx] = down
		}
		qc.bcastUp = !down
	}
	if !w.planner {
		if !qc.bcastUp {
			// Naive baseline: the client keeps trying to tune in and only
			// succeeds once the window ends — the whole remaining window
			// is dead air on its clock.
			qc.chWait = int64(math.Ceil(w.blackout.Remaining(idx, w.nowSec) / w.Params.SlotSec))
			if w.counted() {
				w.stats.BlackoutQueries++
				w.stats.BlackoutWaitSlots += qc.chWait
			}
		}
		return qc
	}
	peersUp := !w.inj.DeepFade()
	switch {
	case qc.bcastUp && peersUp:
		qc.mode = modeFull
	case !qc.bcastUp && peersUp:
		qc.mode = modeP2POnly
	case qc.bcastUp && !peersUp:
		qc.mode = modeOnAirOnly
	default:
		qc.mode = modeOwnCache
	}
	if qc.mode != modeFull && w.counted() {
		switch qc.mode {
		case modeP2POnly:
			w.stats.ModeP2POnly++
		case modeOnAirOnly:
			w.stats.ModeOnAirOnly++
		case modeOwnCache:
			w.stats.ModeOwnCache++
		}
		w.stats.ModeSwitchSlots += qc.switchCost()
	}
	return qc
}

// outcomeLabel renders a query's trace outcome: the core outcome string,
// except that a channel-less rung which could not verify reports
// "degraded" (a best-effort peer-side answer) or "unanswered" (nothing
// usable at all) instead of "broadcast" — the channel was never touched.
func outcomeLabel(o core.Outcome, degraded bool, nPOIs int) string {
	if !degraded {
		return o.String()
	}
	if nPOIs > 0 {
		return "degraded"
	}
	return "unanswered"
}

// staleBound computes the own-cache rung's explicit staleness bound: the
// age in simulated seconds of the oldest cached region that contributed
// to the answer (from its Born stamp). The client hands this to the
// application with the result — "this answer may be up to N seconds
// stale". Zero (and absent from traces) for every other rung.
func (w *World) staleBound(mode queryMode, minBorn int64) int64 {
	if mode != modeOwnCache || minBorn == math.MaxInt64 {
		return 0
	}
	bound := int64(w.nowSec) - minBorn
	if bound < 0 {
		bound = 0
	}
	if bound > w.stats.StaleBoundMaxSec {
		w.stats.StaleBoundMaxSec = bound
	}
	return bound
}

// observeBudget tallies the availability metric of channel-impaired runs
// (burst or blackout armed) and of load-governed runs (the governor
// steers by this ratio): a query counts as answered-in-budget when
// it produced an answer on any rung — exact, approximate, channel, or
// degraded — within DeadlineSlots plus one broadcast cycle, the
// end-to-end patience a deadline-bound client realistically has. This is
// the curve on which the fallback ladder beats the naive
// stall-and-retry baseline (EXPERIMENTS.md).
func (w *World) observeBudget(ts *typeState, total int64, answered, shed bool) {
	budget := int64(w.Params.DeadlineSlots) + ts.sched.CycleLength()
	ok := answered && total <= budget
	if ok {
		w.stats.AnsweredInBudget++
	}
	// The load governor steers by this same ratio (overload.go), but
	// only on queries the overload plane did NOT shed: a shed answer
	// rides the slow path the plane itself chose, and feeding its
	// latency back as a budget miss would latch the governor — its own
	// sheds would hold the ratio at zero forever (metastability by
	// construction). Organic degradation (BUSY fallbacks, fades) still
	// feeds the window; shedding relieves those, so that loop damps.
	if !shed && w.govSteering() {
		w.ovl.noteBudget(ok)
	}
}

// appendOwnCache adds the host's own cached regions intersecting the
// relevance rectangle to the query's collection as zero-cost peer data (no
// wire traffic, no transport faults, no breaker), demoting beyond-horizon
// regions to the probabilistic path exactly like the peer-served admission
// gate. It returns the oldest Born stamp among the added regions
// (math.MaxInt64 when none) — the input of the own-cache rung's staleness
// bound. Like a peer's reply, it reads no region when the cache MBR misses
// the rectangle.
func (w *World) appendOwnCache(idx, ti int, relevance geom.Rect) int64 {
	minBorn := int64(math.MaxInt64)
	c := &w.caches[ti][idx]
	if mbr, ok := c.Bounds(); !ok || !mbr.Intersects(relevance) {
		return minBorn
	}
	for i, regions := 0, c.Regions(); i < len(regions); i++ {
		if r := &regions[i]; r.Rect.Intersects(relevance) {
			pd := core.PeerData{VR: r.Rect, POIs: r.POIs}
			if w.cons != nil && r.Epoch < w.cons.types[ti].epoch {
				pd.Tainted = true
				w.stats.VRsDemoted++
			}
			w.qs.col.add(pd, origin{peer: trust.Self})
			minBorn = min(minBorn, r.Born)
		}
	}
	return minBorn
}

// collectOwnCacheOnly is the bottom rungs' collection, staged like a
// gather's: no requests leave the host's radio. It returns the oldest Born
// stamp collected (appendOwnCache). force includes the own cache even when
// the UseOwnCache knob is off — the last-resort rung answers from whatever
// the host has, because the alternative is answering with nothing.
func (w *World) collectOwnCacheOnly(idx, ti int, relevance geom.Rect, force bool) int64 {
	w.qs.col.reset()
	if w.Params.UseOwnCache || force {
		return w.appendOwnCache(idx, ti, relevance)
	}
	return math.MaxInt64
}
