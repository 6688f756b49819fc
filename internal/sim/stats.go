package sim

import (
	"reflect"
	"slices"
	"strings"
)

// Stats aggregates the quantities the paper's figures report. It is the
// one ledger of counts: a field's `section` tag is its heading in the text
// report (Report.WriteText), an `events` tag adds it to those layers'
// activity totals (Events), and a `metric` tag exports it as that /metrics
// counter, with the `help` tag on the first field of a name; fields sharing
// a name are summed (metrics.go). The JSON keys are the field names, and
// the layer fields from ByzantineLies on are omitted while zero. Unless its
// comment says it counts from t = 0, a field counts only queries after the
// warm-up.
type Stats struct {
	// Queries is the number of (post-warm-up) queries issued.
	Queries int `section:"queries" metric:"lbsq_queries_total" help:"counted (post-warm-up) queries"`
	// Verified counts queries fully resolved by peer sharing with exact
	// results (SBNN fully verified / SBWQ window covered).
	Verified int `section:"queries" metric:"lbsq_queries_verified_total" help:"queries resolved by exact sharing"`
	// Approximate counts kNN queries resolved by approximate SBNN
	// (full heap, unverified correctness above the threshold).
	Approximate int `section:"queries" metric:"lbsq_queries_approximate_total" help:"queries resolved by approximate SBNN"`
	// Broadcast counts queries that fell back to the broadcast channel.
	Broadcast int `section:"queries" metric:"lbsq_queries_broadcast_total" help:"queries resolved over the broadcast channel"`

	// LatencySlots sums the broadcast access latency of channel-resolved
	// queries, in slots.
	LatencySlots int64 `section:"on-air"`
	// TuningSlots sums the tuning time of channel-resolved queries.
	TuningSlots int64 `section:"on-air"`
	// PacketsRead / PacketsSkipped sum data packets downloaded and
	// packets filtered out by SBNN/SBWQ search bounds.
	PacketsRead    int64 `section:"on-air"`
	PacketsSkipped int64 `section:"on-air"`

	// BaselineLatencySlots / BaselinePackets sum, over the same queries,
	// the cost the plain on-air algorithms (no sharing) would have paid.
	// Populated only when World.CompareBaseline is set.
	BaselineLatencySlots int64 `section:"baseline"`
	BaselinePackets      int64 `section:"baseline"`
	BaselineSampled      int   `section:"baseline"`

	// PeerRequests / PeerReplies count P2P traffic from t = 0. With faults
	// enabled PeerRequests includes every re-broadcast attempt.
	PeerRequests int64 `section:"peers"`
	PeerReplies  int64 `section:"peers"`
	// PeerBytes is the total ad-hoc channel traffic in encoded wire-format
	// bytes (requests plus replies, lost frames included — they occupied
	// the channel even when nothing arrived).
	PeerBytes int64 `section:"peers" metric:"lbsq_peer_bytes_total" help:"ad-hoc channel traffic in encoded wire bytes"`

	// Fault injection: zero on an ideal substrate; each field counts one
	// degradation path of the fault model.
	//
	// PeerRetries counts, from t = 0, request re-broadcasts beyond each
	// query's first attempt (the bounded retry budget).
	PeerRetries int64 `section:"faults"`
	// RequestsUnheard counts per-peer request receptions lost, from t = 0.
	RequestsUnheard int64 `section:"faults" events:"fault"`
	// RepliesDropped counts peer replies lost in flight, from t = 0.
	RepliesDropped int64 `section:"faults" events:"fault"`
	// RepliesRejected counts, from t = 0, truncated or bit-corrupted peer
	// replies the wire decoder's CRC/structure checks refused.
	RepliesRejected int64 `section:"faults" events:"fault"`
	// Retransmissions counts broadcast data-packet receptions lost to
	// channel errors; the client waited a further cycle for each.
	Retransmissions int64 `section:"faults" events:"fault"`
	// IndexRetries counts index-segment receptions lost; the client
	// waited for the next (1, m) index replica for each.
	IndexRetries int64 `section:"faults" events:"fault"`

	// Collection lifecycle, counted from t = 0: with no loss on the peer
	// link every peer resolves in round one and all of these stay zero.
	//
	// DeadlineAborts counts queries whose P2P phase exceeded its slot
	// budget and abandoned the remaining retry targets.
	DeadlineAborts int64 `section:"lifecycle" events:"resilience"`
	// BackoffSlots sums the broadcast slots spent waiting in retry
	// backoff across all queries (the adaptive-retry price).
	BackoffSlots int64 `section:"lifecycle" events:"resilience" metric:"lbsq_backoff_slots_total" help:"broadcast slots spent in retry backoff"`
	// BreakerTrips counts circuit-breaker closed→open and
	// half-open→open transitions.
	BreakerTrips int64 `section:"lifecycle" events:"resilience"`
	// BreakerShortCircuits counts requests skipped because the target
	// peer's breaker was open (retry traffic saved).
	BreakerShortCircuits int64 `section:"lifecycle" events:"resilience"`
	// BreakerRecoveries counts half-open→closed transitions (a probe
	// reply was delivered sound).
	BreakerRecoveries int64 `section:"lifecycle" events:"resilience"`
	// ChurnDepartures counts peers that powered off or drifted out of
	// range mid-collection; ChurnReturns counts departed peers that came
	// back before the same collection finished.
	ChurnDepartures int64 `section:"lifecycle" events:"fault,resilience"`
	ChurnReturns    int64 `section:"lifecycle" events:"resilience"`
	// WastedRetries counts retry transmissions addressed at departed
	// peers (spent channel time that could not possibly be answered).
	WastedRetries int64 `section:"lifecycle" events:"resilience"`

	// Trust layer (DESIGN.md §11), counted from t = 0; zero unless
	// Faults.ByzantineRate or AuditRate is set.
	//
	// ByzantineLies counts materially false claims byzantine hosts told
	// (one per mangled shared region).
	ByzantineLies int64 `json:",omitempty" section:"trust" events:"fault"`
	// AuditsRun counts on-air spot audits (passed or failed) and
	// AuditFailures how many of them convicted the contributor.
	AuditsRun     int64 `json:",omitempty" section:"trust" events:"trust" metric:"lbsq_trust_audits_total" help:"on-air spot audits run"`
	AuditFailures int64 `json:",omitempty" section:"trust" events:"trust" metric:"lbsq_trust_audit_failures_total" help:"spot audits that convicted the contributor"`
	// ConflictsDetected counts overlap disagreements cross-validation
	// found between peers' verified regions.
	ConflictsDetected int64 `json:",omitempty" section:"trust" events:"trust" metric:"lbsq_trust_conflicts_total" help:"cross-validation overlap disagreements"`
	// PeersQuarantined counts peer convictions (failed audits plus strike
	// accumulations); each forces the peer's circuit breaker open.
	PeersQuarantined int64 `json:",omitempty" section:"trust" events:"trust" metric:"lbsq_trust_convictions_total" help:"peer convictions (audit failures plus strike accumulations)"`
	// AuditSlots is the broadcast-slot cost of all audits, priced into the
	// audited queries' access latency.
	AuditSlots int64 `json:",omitempty" section:"trust" events:"trust" metric:"lbsq_trust_audit_slots_total" help:"broadcast slots spent auditing, priced into query latency"`
	// QuarantinedArea is the total area (square miles) subtracted from
	// merges by conflict quarantine and convictions.
	QuarantinedArea float64 `json:",omitempty" section:"trust"`
	// StaleVerdicts counts cross-validation disagreements amnestied
	// because a claimant's region carried a superseded epoch — the third
	// verdict of the stale-vs-byzantine table (DESIGN.md §12). Zero
	// unless both the trust and consistency layers are armed.
	StaleVerdicts int64 `json:",omitempty" section:"trust" events:"consistency"`

	// Consistency layer (DESIGN.md §12), counted from t = 0; zero unless
	// UpdateRate or VRTTLSec is set.
	//
	// POIUpdates counts POI mutations applied (insert/delete/move) and
	// IRBroadcasts the epochs those mutations were batched into.
	POIUpdates   int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_poi_updates_total" help:"POI mutations applied by the update process"`
	IRBroadcasts int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_ir_broadcasts_total" help:"invalidation-report frames put on air (epoch advances)"`
	// IRListens counts clients tuning in for an invalidation report
	// before querying, IRListenSlots the broadcast slots that cost, and
	// IRListenRetries the IR copies lost to channel errors (the client
	// waited for the next index replica each time).
	IRListens       int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_ir_listens_total" help:"client IR listen passes (one per host behind the current epoch)"`
	IRListenSlots   int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_ir_listen_slots_total" help:"broadcast slots spent listening for IR frames, priced into query latency"`
	IRListenRetries int64 `json:",omitempty" section:"consistency" events:"consistency"`
	// VRsReconciled counts cached regions surgically repaired around
	// invalidated cells, VRsDemoted regions too old for the IR window
	// that entered a query tainted (probabilistic path only), and
	// VRsDiscarded regions dropped (whole-discard mode, shrink-to-empty,
	// or over-fragmented repairs).
	VRsReconciled int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_vrs_reconciled_total" help:"verified regions surgically repaired against an IR frame"`
	VRsDemoted    int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_vrs_demoted_total" help:"beyond-horizon regions demoted to the probabilistic path"`
	VRsDiscarded  int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_vrs_discarded_total" help:"regions dropped outright (shrunk to empty, over the piece cap, or whole-discard ablation)"`
	// VRsExpired counts regions evicted by the VRTTLSec time-to-live.
	VRsExpired int64 `json:",omitempty" section:"consistency" events:"consistency" metric:"lbsq_consistency_vrs_expired_total" help:"cached regions evicted by the VR time-to-live"`

	// Channel impairment (DESIGN.md §13): the Gilbert–Elliott fading
	// chain, the blackout windows and the degraded-mode planner; zero
	// unless their knobs are set.
	//
	// Degraded counts queries answered from peer-side knowledge on a
	// channel-less rung (P2P-only or own-cache) without verification —
	// best-effort answers with Lemma 3.2 confidence at most. Unanswered
	// counts queries those rungs could not answer at all. Both are
	// outcome classes: Verified+Approximate+Broadcast+Degraded+Unanswered
	// always equals Queries.
	Degraded   int `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_degraded_total" help:"queries answered best-effort on a channel-less fallback rung"`
	Unanswered int `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_unanswered_total" help:"queries no fallback rung could answer"`
	// ModeP2POnly / ModeOnAirOnly / ModeOwnCache count counted queries
	// the planner placed on each fallback rung, and ModeSwitchSlots the
	// total deadline-priced rung-switch cost those queries paid.
	ModeP2POnly     int64 `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_mode_fallbacks_total" help:"queries the degraded planner placed below the full protocol"`
	ModeOnAirOnly   int64 `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_mode_fallbacks_total"`
	ModeOwnCache    int64 `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_mode_fallbacks_total"`
	ModeSwitchSlots int64 `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_mode_switch_slots_total" help:"deadline-priced rung-switch slots paid by fallback queries"`
	// BlackoutQueries counts naive-mode (planner off) queries that hit a
	// dark downlink and stalled; BlackoutWaitSlots sums the dead air they
	// waited. BlackoutRecoveries counts, from t = 0, per-host
	// reacquisitions (a host's first query after its blackout window
	// ended).
	BlackoutQueries    int64 `json:",omitempty" section:"channel" events:"channel"`
	BlackoutWaitSlots  int64 `json:",omitempty" section:"channel" events:"channel" metric:"lbsq_channel_blackout_wait_slots_total" help:"dead-air slots naive-mode queries spent waiting out blackout windows"`
	BlackoutRecoveries int64 `json:",omitempty" section:"channel" events:"channel"`
	// IRDeferred counts IR listens skipped because the host's downlink
	// was dark (the epoch lag replays at reacquisition); IRListenAborts
	// counts listens abandoned at the bounded replica wait (the host
	// neither reconciled nor advanced its epoch). Both count from t = 0.
	IRDeferred     int64 `json:",omitempty" section:"channel" events:"channel"`
	IRListenAborts int64 `json:",omitempty" section:"channel" events:"channel"`
	// FadeSuppressedStrikes counts, from t = 0, reply-timeout breaker
	// strikes withheld because the fading chain was impaired at end of
	// collection — a global fade is a channel property, never peer
	// misbehavior.
	FadeSuppressedStrikes int64 `json:",omitempty" section:"channel" events:"channel"`
	// BurstFrameLosses counts P2P frames the fading chain killed on top
	// of the legacy Bernoulli losses; BurstTransitions counts good↔bad
	// state flips of the chain. Both count from t = 0.
	BurstFrameLosses int64 `json:",omitempty" section:"channel" events:"channel"`
	BurstTransitions int64 `json:",omitempty" section:"channel" events:"channel"`
	// AnsweredInBudget counts queries answered (any rung) within
	// DeadlineSlots plus one broadcast cycle — the availability metric of
	// the EXPERIMENTS.md burstiness curve. Computed only when the burst
	// or blackout knobs are armed, or the load governor is (it steers by
	// this ratio). It measures availability under impairment, not
	// impairment itself, so it counts toward no layer's Events.
	AnsweredInBudget int64 `json:",omitempty" section:"channel"`
	// StaleBoundMaxSec is the worst explicit staleness bound any
	// own-cache-rung answer carried (seconds since the oldest
	// contributing region was inserted).
	StaleBoundMaxSec int64 `json:",omitempty" section:"channel" events:"channel"`

	// Continuous queries (DESIGN.md §15); zero unless ContinuousRate is set.
	//
	// Subscriptions counts standing-query registrations (post-warm-up).
	Subscriptions int64 `json:",omitempty" section:"continuous" events:"continuous" metric:"lbsq_continuous_subscriptions_total" help:"standing-query registrations"`
	// SafeRegionHits counts maintenance ticks a subscription answered from
	// its stored result because the host stayed strictly inside the
	// safe-exit radius and nothing tainted the answer (a cheap re-rank,
	// no query path, no channel).
	SafeRegionHits int64 `json:",omitempty" section:"continuous" events:"continuous" metric:"lbsq_continuous_safe_region_hits_total" help:"maintenance ticks answered inside the safe-exit radius"`
	// Reverifies counts maintenance ticks that re-ran the full query
	// path; it always equals ReverifyExits + ReverifyTaints +
	// ReverifyUnverified + ReverifyNaive.
	Reverifies int64 `json:",omitempty" section:"continuous" events:"continuous" metric:"lbsq_continuous_reverifies_total" help:"maintenance ticks that re-ran the full query path"`
	// ReverifyExits counts re-verifications forced by the host crossing
	// its safe-exit radius, ReverifyTaints those forced by an
	// invalidation epoch advance or VR TTL expiry on the stored answer,
	// ReverifyUnverified those forced because the previous maintenance
	// left no exact answer (first verification of a new subscription, or
	// a Lemma 3.2 probabilistic demotion), and ReverifyNaive the
	// unconditional re-runs of the ContinuousNaive baseline.
	ReverifyExits      int64 `json:",omitempty" section:"continuous" events:"continuous"`
	ReverifyTaints     int64 `json:",omitempty" section:"continuous" events:"continuous"`
	ReverifyUnverified int64 `json:",omitempty" section:"continuous" events:"continuous"`
	ReverifyNaive      int64 `json:",omitempty" section:"continuous" events:"continuous"`
	// ContDegraded counts re-verifications whose answer came back inexact
	// (approximate or channel-less degraded) — the subscription then
	// holds a probabilistic answer and re-verifies next tick.
	ContDegraded int64 `json:",omitempty" section:"continuous" events:"continuous"`
	// ContSlots sums the broadcast slots subscription re-verifications
	// spent (channel access, IR listens, audits, mode switches, blackout
	// waits) — the continuous layer's slot cost, kept separate from the
	// one-shot query counters.
	ContSlots int64 `json:",omitempty" section:"continuous" events:"continuous" metric:"lbsq_continuous_slots_total" help:"broadcast slots subscription re-verifications spent"`

	// Overload plane (DESIGN.md §16): the flash-crowd generator and the
	// demand-side controls; zero unless their knobs are set.
	//
	// CrowdQueries counts the extra hotspot queries the flash-crowd
	// generator injected (post-warm-up, included in Queries).
	CrowdQueries int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_crowd_queries_total" help:"flash-crowd queries launched from the hotspot"`
	// BusyReplies counts explicit BUSY backpressure frames received from
	// peers whose bounded service queue was full; QueueDrops counts
	// requests peers shed silently beyond the busy band. Neither is ever
	// a breaker strike. Both count from t = 0.
	BusyReplies int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_busy_replies_total" help:"explicit BUSY backpressure frames received from saturated peers"`
	QueueDrops  int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_queue_drops_total" help:"requests peers shed silently beyond the busy band"`
	// Shed counts one-shot queries demoted to the broadcast-only path by
	// the demand-side controls; it always equals AdmissionDenied +
	// GovernorSheds. AdmissionDenied are sheds from an empty per-MH
	// admission token bucket, GovernorSheds from the load governor's
	// engaged state.
	Shed            int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_shed_total" help:"one-shot peer-gathers shed by admission control or the load governor"`
	AdmissionDenied int64 `json:",omitempty" section:"overload" events:"overload"`
	GovernorSheds   int64 `json:",omitempty" section:"overload" events:"overload"`
	// GovernorEngagedTicks counts ticks the load governor spent in its
	// shedding state (answered-in-budget ratio below the floor).
	GovernorEngagedTicks int64 `json:",omitempty" section:"overload" events:"overload"`
	// RetryBudgetExhausted counts queries whose retry rounds stopped
	// because the tick's global retry budget ran out (the query proceeds
	// with the replies it has — bounded amplification, not failure).
	RetryBudgetExhausted int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_retry_budget_exhausted_total" help:"collections that stopped retrying on an exhausted per-tick retry budget"`
	// Coalesced counts queries that reused a co-located same-tick
	// query's screened peer gather instead of broadcasting their own
	// request.
	Coalesced int64 `json:",omitempty" section:"overload" events:"overload" metric:"lbsq_overload_coalesced_total" help:"queries that reused a co-located donor's peer-gather"`

	// peersSum sums the reachable peers of counted queries (AvgPeers).
	peersSum int64
}

// VerifiedPct returns the percentage of queries resolved by exact sharing.
func (s Stats) VerifiedPct() float64 { return pct(s.Verified, s.Queries) }

// ApproximatePct returns the percentage resolved by approximate SBNN.
func (s Stats) ApproximatePct() float64 { return pct(s.Approximate, s.Queries) }

// BroadcastPct returns the percentage resolved over the channel.
func (s Stats) BroadcastPct() float64 { return pct(s.Broadcast, s.Queries) }

// SharedPct returns the percentage resolved without the channel.
func (s Stats) SharedPct() float64 { return pct(s.Verified+s.Approximate, s.Queries) }

// AvgLatencySlots returns the mean channel latency per broadcast-resolved
// query.
func (s Stats) AvgLatencySlots() float64 { return per(s.LatencySlots, int64(s.Broadcast)) }

// AvgTuningSlots returns the mean tuning time per broadcast-resolved
// query.
func (s Stats) AvgTuningSlots() float64 { return per(s.TuningSlots, int64(s.Broadcast)) }

// MeanSystemLatencySlots returns the mean access latency over ALL counted
// queries (peer-resolved queries contribute zero — they are answered
// immediately from one-hop neighbors). This is the headline latency win.
func (s Stats) MeanSystemLatencySlots() float64 { return per(s.LatencySlots, int64(s.Queries)) }

// BaselineMeanLatencySlots returns the mean plain on-air latency over the
// baseline-priced queries.
func (s Stats) BaselineMeanLatencySlots() float64 {
	return per(s.BaselineLatencySlots, int64(s.BaselineSampled))
}

// AvgPeerBytes returns the mean ad-hoc traffic per query in bytes.
func (s Stats) AvgPeerBytes() float64 { return per(s.PeerBytes, int64(s.Queries)) }

// AvgPeers returns the mean number of peers reachable per query.
func (s Stats) AvgPeers() float64 { return per(s.peersSum, int64(s.Queries)) }

// Events returns the total activity of one layer — fault, resilience,
// trust, consistency, channel, continuous or overload: the sum of the
// fields whose `events` tag lists it. A layer's total is zero exactly
// when the run left the layer's knobs at zero (for fault, an ideal
// substrate; for resilience, a loss-free peer link with the lifecycle
// knobs off).
func (s Stats) Events(layer string) int64 {
	v := reflect.ValueOf(s)
	n := int64(0)
	for i := 0; i < v.NumField(); i++ {
		if slices.Contains(strings.Split(v.Type().Field(i).Tag.Get("events"), ","), layer) {
			n += v.Field(i).Int()
		}
	}
	return n
}

// AnsweredInBudgetPct returns the answered-within-deadline fraction of
// a channel-impaired run — the availability headline of the burstiness
// experiments.
func (s Stats) AnsweredInBudgetPct() float64 {
	return pct(int(s.AnsweredInBudget), s.Queries)
}

// MaintenanceTicks returns the number of per-tick maintenance decisions
// the continuous layer made (safe-region hits plus re-verifications).
func (s Stats) MaintenanceTicks() int64 { return s.SafeRegionHits + s.Reverifies }

// ReverifyFraction returns the fraction of maintenance ticks that had to
// re-run the query path — 1.0 for the naive baseline, well below 1.0
// when safe regions absorb the movement (the EXPERIMENTS.md continuous
// curve's y-axis).
func (s Stats) ReverifyFraction() float64 { return per(s.Reverifies, s.MaintenanceTicks()) }

// GoodputPct returns the fraction of counted queries answered exactly or
// acceptably (verified, approximate, or broadcast — everything except
// the channel-less degraded/unanswered outcomes), the y-axis of the
// EXPERIMENTS.md goodput-vs-offered-load curve.
func (s Stats) GoodputPct() float64 {
	return pct(s.Verified+s.Approximate+s.Broadcast, s.Queries)
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// per is the mean sum/n, zero when n is.
func per(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
