package sim

import (
	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/metrics"
	"lbsq/internal/trust"
)

// worldMetrics bundles one World's registered instruments — the
// observability layer of DESIGN.md §10. It exists only when
// Params.Metrics is set; a nil worldMetrics costs one branch per query
// and leaves every output bit-identical to a metrics-free build (the
// same zero-knob identity contract the faults and resilience layers
// honor). All observed quantities are deterministic simulated values
// (slots, work units, square miles), so identical seeds produce
// byte-identical snapshots.
//
// The struct is owned by the World's goroutine; the only concurrent
// consumers are published snapshots (metrics.Registry.Publish).
type worldMetrics struct {
	reg    *metrics.Registry
	spans  metrics.QuerySpans // reused per query (observation scratch)
	phases *metrics.PhaseSet

	queries     *metrics.Counter
	verified    *metrics.Counter
	approximate *metrics.Counter
	broadcastQ  *metrics.Counter
	peerBytes   *metrics.Counter
	backoff     *metrics.Counter

	latency   *metrics.Histogram
	tuning    *metrics.Histogram
	fanout    *metrics.Histogram
	knownArea *metrics.Histogram

	nowSec *metrics.Gauge
	hosts  *metrics.Gauge

	// Trust-layer instruments, registered only when the AuditRate knob is
	// on (trust off must leave the snapshot byte-identical to a build
	// without the layer). All nil otherwise — observeTrust checks one.
	audits        *metrics.Counter
	auditFailures *metrics.Counter
	conflicts     *metrics.Counter
	convictions   *metrics.Counter
	auditSlots    *metrics.Counter
	auditCost     *metrics.Histogram

	// Consistency-layer instruments, registered only when the UpdateRate
	// or VRTTLSec knob is on (same zero-knob contract as the trust
	// block). All nil otherwise — every observe helper checks one.
	poiUpdates    *metrics.Counter
	irBroadcasts  *metrics.Counter
	irListens     *metrics.Counter
	irListenSlots *metrics.Counter
	vrsReconciled *metrics.Counter
	vrsDemoted    *metrics.Counter
	vrsDiscarded  *metrics.Counter
	vrsExpired    *metrics.Counter
	reconcileCost *metrics.Histogram

	// Channel-impairment instruments, registered only when the burst,
	// blackout, or DegradedMode knob is on (same zero-knob contract as
	// the trust and consistency blocks). All nil otherwise —
	// observeChannel checks one.
	degradedQ     *metrics.Counter
	unansweredQ   *metrics.Counter
	modeFallbacks *metrics.Counter
	modeSwitch    *metrics.Counter
	blackoutWait  *metrics.Counter

	// Continuous-query instruments, registered only when the
	// ContinuousRate knob is on (same zero-knob contract as the other
	// layer blocks). All nil otherwise — observeContinuous checks one.
	contSubs      *metrics.Counter
	contHits      *metrics.Counter
	contReverify  *metrics.Counter
	contSlots     *metrics.Counter
	contSlotsCost *metrics.Histogram

	// Overload-plane instruments, registered only when a crowd or
	// overload knob is on (same zero-knob contract). All nil otherwise —
	// observeOverloadTick checks one. Counters advance by per-tick
	// deltas against the lastOvl snapshot.
	ovlCrowd      *metrics.Counter
	ovlShed       *metrics.Counter
	ovlBusy       *metrics.Counter
	ovlQueueDrops *metrics.Counter
	ovlRetryExh   *metrics.Counter
	ovlCoalesced  *metrics.Counter
	ovlGovEngaged *metrics.Gauge
	lastOvl       [6]int64

	// lastPeerBytes tracks the Stats.PeerBytes high-water mark so the
	// ad-hoc traffic counter advances by per-query deltas.
	lastPeerBytes int64
}

// metricLayer names the block of instruments one armed layer registers:
// the base set is always present, the others only when their knobs are
// on, so a zero-knob snapshot is byte-identical to a build without them.
type metricLayer int

const (
	layerBase metricLayer = iota
	layerTrust
	layerConsistency
	layerChannel
	layerContinuous
	layerOverload
	numMetricLayers
)

// statCounter is one /metrics counter: a named view of Stats.
type statCounter struct {
	name, help string
	get        func(*Stats) int64
}

// statCounters is the whole counter surface of /metrics, by layer. Stats
// is the only ledger; these rows say which of its tallies are exported
// and under what name (DESIGN.md §10.2).
var statCounters = [numMetricLayers][]statCounter{
	layerBase: {
		{"lbsq_queries_total", "counted (post-warm-up) queries", func(s *Stats) int64 { return int64(s.Queries) }},
		{"lbsq_queries_verified_total", "queries resolved by exact sharing", func(s *Stats) int64 { return int64(s.Verified) }},
		{"lbsq_queries_approximate_total", "queries resolved by approximate SBNN", func(s *Stats) int64 { return int64(s.Approximate) }},
		{"lbsq_queries_broadcast_total", "queries resolved over the broadcast channel", func(s *Stats) int64 { return int64(s.Broadcast) }},
		{"lbsq_peer_bytes_total", "ad-hoc channel traffic in encoded wire bytes", func(s *Stats) int64 { return s.PeerBytes }},
		{"lbsq_backoff_slots_total", "broadcast slots spent in retry backoff", func(s *Stats) int64 { return s.BackoffSlots }},
	},
	layerTrust: {
		{"lbsq_trust_audits_total", "on-air spot audits run", func(s *Stats) int64 { return s.AuditsRun }},
		{"lbsq_trust_audit_failures_total", "spot audits that convicted the contributor", func(s *Stats) int64 { return s.AuditFailures }},
		{"lbsq_trust_conflicts_total", "cross-validation overlap disagreements", func(s *Stats) int64 { return s.ConflictsDetected }},
		{"lbsq_trust_convictions_total", "peer convictions (audit failures plus strike accumulations)", func(s *Stats) int64 { return s.PeersQuarantined }},
		{"lbsq_trust_audit_slots_total", "broadcast slots spent auditing, priced into query latency", func(s *Stats) int64 { return s.AuditSlots }},
	},
	layerConsistency: {
		{"lbsq_consistency_poi_updates_total", "POI mutations applied by the update process", func(s *Stats) int64 { return s.POIUpdates }},
		{"lbsq_consistency_ir_broadcasts_total", "invalidation-report frames put on air (epoch advances)", func(s *Stats) int64 { return s.IRBroadcasts }},
		{"lbsq_consistency_ir_listens_total", "client IR listen passes (one per host behind the current epoch)", func(s *Stats) int64 { return s.IRListens }},
		{"lbsq_consistency_ir_listen_slots_total", "broadcast slots spent listening for IR frames, priced into query latency", func(s *Stats) int64 { return s.IRListenSlots }},
		{"lbsq_consistency_vrs_reconciled_total", "verified regions surgically repaired against an IR frame", func(s *Stats) int64 { return s.VRsReconciled }},
		{"lbsq_consistency_vrs_demoted_total", "beyond-horizon regions demoted to the probabilistic path", func(s *Stats) int64 { return s.VRsDemoted }},
		{"lbsq_consistency_vrs_discarded_total", "regions dropped outright (shrunk to empty, over the piece cap, or whole-discard ablation)", func(s *Stats) int64 { return s.VRsDiscarded }},
		{"lbsq_consistency_vrs_expired_total", "cached regions evicted by the VR time-to-live", func(s *Stats) int64 { return s.VRsExpired }},
	},
	layerChannel: {
		{"lbsq_channel_degraded_total", "queries answered best-effort on a channel-less fallback rung", func(s *Stats) int64 { return int64(s.Degraded) }},
		{"lbsq_channel_unanswered_total", "queries no fallback rung could answer", func(s *Stats) int64 { return int64(s.Unanswered) }},
		{"lbsq_channel_mode_fallbacks_total", "queries the degraded planner placed below the full protocol", func(s *Stats) int64 { return s.ModeP2POnly + s.ModeOnAirOnly + s.ModeOwnCache }},
		{"lbsq_channel_mode_switch_slots_total", "deadline-priced rung-switch slots paid by fallback queries", func(s *Stats) int64 { return s.ModeSwitchSlots }},
		{"lbsq_channel_blackout_wait_slots_total", "dead-air slots naive-mode queries spent waiting out blackout windows", func(s *Stats) int64 { return s.BlackoutWaitSlots }},
	},
	layerContinuous: {
		{"lbsq_continuous_subscriptions_total", "standing-query registrations", func(s *Stats) int64 { return s.Subscriptions }},
		{"lbsq_continuous_safe_region_hits_total", "maintenance ticks answered inside the safe-exit radius", func(s *Stats) int64 { return s.SafeRegionHits }},
		{"lbsq_continuous_reverifies_total", "maintenance ticks that re-ran the full query path", func(s *Stats) int64 { return s.Reverifies }},
		{"lbsq_continuous_slots_total", "broadcast slots subscription re-verifications spent", func(s *Stats) int64 { return s.ContSlots }},
	},
	layerOverload: {
		{"lbsq_overload_crowd_queries_total", "flash-crowd queries launched from the hotspot", func(s *Stats) int64 { return s.CrowdQueries }},
		{"lbsq_overload_shed_total", "one-shot peer-gathers shed by admission control or the load governor", func(s *Stats) int64 { return s.Shed }},
		{"lbsq_overload_busy_replies_total", "explicit BUSY backpressure frames received from saturated peers", func(s *Stats) int64 { return s.BusyReplies }},
		{"lbsq_overload_queue_drops_total", "requests peers shed silently beyond the busy band", func(s *Stats) int64 { return s.QueueDrops }},
		{"lbsq_overload_retry_budget_exhausted_total", "collections that stopped retrying on an exhausted per-tick retry budget", func(s *Stats) int64 { return s.RetryBudgetExhausted }},
		{"lbsq_overload_coalesced_total", "queries that reused a co-located donor's peer-gather", func(s *Stats) int64 { return s.Coalesced }},
	},
}

// newWorldMetrics registers the simulator's instrument set. trustOn
// additionally registers the trust-layer instruments, consOn the
// consistency-layer ones, chanOn the channel-impairment ones, contOn
// the continuous-query ones, and ovlOn the overload-plane ones; with
// all five false the registry contents are identical to a build
// without those layers.
func newWorldMetrics(trustOn, consOn, chanOn, contOn, ovlOn bool) *worldMetrics {
	reg := metrics.NewRegistry()
	m := &worldMetrics{
		reg:    reg,
		phases: metrics.NewPhaseSet(reg, "lbsq"),

		queries:     reg.Counter("lbsq_queries_total", "counted (post-warm-up) queries"),
		verified:    reg.Counter("lbsq_queries_verified_total", "queries resolved by exact sharing"),
		approximate: reg.Counter("lbsq_queries_approximate_total", "queries resolved by approximate SBNN"),
		broadcastQ:  reg.Counter("lbsq_queries_broadcast_total", "queries resolved over the broadcast channel"),
		peerBytes:   reg.Counter("lbsq_peer_bytes_total", "ad-hoc channel traffic in encoded wire bytes"),
		backoff:     reg.Counter("lbsq_backoff_slots_total", "broadcast slots spent in retry backoff"),

		latency: reg.Histogram("lbsq_query_latency_slots",
			"end-to-end access latency per counted query (peer-resolved queries observe 0)",
			"slots", metrics.SlotBuckets()),
		tuning: reg.Histogram("lbsq_query_tuning_slots",
			"active listening time per counted query",
			"slots", metrics.SlotBuckets()),
		fanout: reg.Histogram("lbsq_peer_fanout",
			"reachable peers per counted query",
			"work", metrics.WorkBuckets()),
		knownArea: reg.Histogram("lbsq_known_region_area_sqmi",
			"area of the verified region each query contributed to its cache",
			"sqmi", metrics.AreaBuckets()),

		nowSec: reg.Gauge("lbsq_sim_now_seconds", "simulated clock"),
		hosts:  reg.Gauge("lbsq_sim_hosts", "mobile hosts in the world"),
	}
	if trustOn {
		m.audits = reg.Counter("lbsq_trust_audits_total", "on-air spot audits run")
		m.auditFailures = reg.Counter("lbsq_trust_audit_failures_total", "spot audits that convicted the contributor")
		m.conflicts = reg.Counter("lbsq_trust_conflicts_total", "cross-validation overlap disagreements")
		m.convictions = reg.Counter("lbsq_trust_convictions_total", "peer convictions (audit failures plus strike accumulations)")
		m.auditSlots = reg.Counter("lbsq_trust_audit_slots_total", "broadcast slots spent auditing, priced into query latency")
		m.auditCost = reg.Histogram("lbsq_trust_audit_cost_slots",
			"audit slot cost per audited query",
			"slots", metrics.SlotBuckets())
	}
	if consOn {
		m.poiUpdates = reg.Counter("lbsq_consistency_poi_updates_total", "POI mutations applied by the update process")
		m.irBroadcasts = reg.Counter("lbsq_consistency_ir_broadcasts_total", "invalidation-report frames put on air (epoch advances)")
		m.irListens = reg.Counter("lbsq_consistency_ir_listens_total", "client IR listen passes (one per host behind the current epoch)")
		m.irListenSlots = reg.Counter("lbsq_consistency_ir_listen_slots_total", "broadcast slots spent listening for IR frames, priced into query latency")
		m.vrsReconciled = reg.Counter("lbsq_consistency_vrs_reconciled_total", "verified regions surgically repaired against an IR frame")
		m.vrsDemoted = reg.Counter("lbsq_consistency_vrs_demoted_total", "beyond-horizon regions demoted to the probabilistic path")
		m.vrsDiscarded = reg.Counter("lbsq_consistency_vrs_discarded_total", "regions dropped outright (shrunk to empty, over the piece cap, or whole-discard ablation)")
		m.vrsExpired = reg.Counter("lbsq_consistency_vrs_expired_total", "cached regions evicted by the VR time-to-live")
		m.reconcileCost = reg.Histogram("lbsq_consistency_reconcile_cost_pieces",
			"surviving pieces per surgically repaired region",
			"work", metrics.WorkBuckets())
	}
	if chanOn {
		m.degradedQ = reg.Counter("lbsq_channel_degraded_total", "queries answered best-effort on a channel-less fallback rung")
		m.unansweredQ = reg.Counter("lbsq_channel_unanswered_total", "queries no fallback rung could answer")
		m.modeFallbacks = reg.Counter("lbsq_channel_mode_fallbacks_total", "queries the degraded planner placed below the full protocol")
		m.modeSwitch = reg.Counter("lbsq_channel_mode_switch_slots_total", "deadline-priced rung-switch slots paid by fallback queries")
		m.blackoutWait = reg.Counter("lbsq_channel_blackout_wait_slots_total", "dead-air slots naive-mode queries spent waiting out blackout windows")
	}
	if contOn {
		m.contSubs = reg.Counter("lbsq_continuous_subscriptions_total", "standing-query registrations")
		m.contHits = reg.Counter("lbsq_continuous_safe_region_hits_total", "maintenance ticks answered inside the safe-exit radius")
		m.contReverify = reg.Counter("lbsq_continuous_reverifies_total", "maintenance ticks that re-ran the full query path")
		m.contSlots = reg.Counter("lbsq_continuous_slots_total", "broadcast slots subscription re-verifications spent")
		m.contSlotsCost = reg.Histogram("lbsq_continuous_reverify_cost_slots",
			"broadcast-slot cost per subscription re-verification",
			"slots", metrics.SlotBuckets())
	}
	if ovlOn {
		m.ovlCrowd = reg.Counter("lbsq_overload_crowd_queries_total", "flash-crowd queries launched from the hotspot")
		m.ovlShed = reg.Counter("lbsq_overload_shed_total", "one-shot peer-gathers shed by admission control or the load governor")
		m.ovlBusy = reg.Counter("lbsq_overload_busy_replies_total", "explicit BUSY backpressure frames received from saturated peers")
		m.ovlQueueDrops = reg.Counter("lbsq_overload_queue_drops_total", "requests peers shed silently beyond the busy band")
		m.ovlRetryExh = reg.Counter("lbsq_overload_retry_budget_exhausted_total", "collections that stopped retrying on an exhausted per-tick retry budget")
		m.ovlCoalesced = reg.Counter("lbsq_overload_coalesced_total", "queries that reused a co-located donor's peer-gather")
		m.ovlGovEngaged = reg.Gauge("lbsq_overload_governor_engaged", "load governor state (1 = shedding, 0 = idle)")
	}
	return m
}

// observeSubscription records one standing-query registration. No-op
// when the continuous instruments are not registered.
func (m *worldMetrics) observeSubscription() {
	if m == nil || m.contSubs == nil {
		return
	}
	m.contSubs.Inc()
}

// observeContinuous records one subscription maintenance decision: a
// safe-region hit (reverified false, zero slots) or a re-verification
// with its broadcast-slot cost.
func (m *worldMetrics) observeContinuous(reverified bool, slots int64) {
	if m == nil || m.contHits == nil {
		return
	}
	if !reverified {
		m.contHits.Inc()
		return
	}
	m.contReverify.Inc()
	m.contSlots.Add(slots)
	m.contSlotsCost.ObserveInt(slots)
}

// observeOverloadTick advances the overload instruments to the current
// cumulative totals — called once per tick from Step when the overload
// plane is armed. Counter deltas are non-negative because every
// underlying tally is monotonic; the governor gauge tracks engagement.
func (w *World) observeOverloadTick() {
	m := w.mx
	if m == nil || m.ovlCrowd == nil {
		return
	}
	cur := [6]int64{
		w.stats.CrowdQueries,
		w.stats.Shed,
		w.net.Stats.Busy,
		w.net.Stats.QueueDrops,
		w.stats.RetryBudgetExhausted,
		w.stats.Coalesced,
	}
	m.ovlCrowd.Add(cur[0] - m.lastOvl[0])
	m.ovlShed.Add(cur[1] - m.lastOvl[1])
	m.ovlBusy.Add(cur[2] - m.lastOvl[2])
	m.ovlQueueDrops.Add(cur[3] - m.lastOvl[3])
	m.ovlRetryExh.Add(cur[4] - m.lastOvl[4])
	m.ovlCoalesced.Add(cur[5] - m.lastOvl[5])
	m.lastOvl = cur
	if w.ovl.engaged {
		m.ovlGovEngaged.Set(1)
	} else {
		m.ovlGovEngaged.Set(0)
	}
}

// observeChannel records one counted query's channel-impairment
// activity. No-op when the channel instruments are not registered or the
// query ran the full protocol unimpaired.
func (m *worldMetrics) observeChannel(qc queryChannel, degraded, empty bool) {
	if m == nil || m.degradedQ == nil {
		return
	}
	if degraded {
		if empty {
			m.unansweredQ.Inc()
		} else {
			m.degradedQ.Inc()
		}
	}
	if qc.mode != modeFull {
		m.modeFallbacks.Inc()
		m.modeSwitch.Add(qc.switchCost())
	}
	m.blackoutWait.Add(qc.chWait)
}

// observeUpdates records one IR period's server-side mutation batch.
// Nil-safe: no-op without the consistency instruments.
func (m *worldMetrics) observeUpdates(n int64) {
	if m == nil || m.poiUpdates == nil {
		return
	}
	m.poiUpdates.Add(n)
	m.irBroadcasts.Inc()
}

// observeIRListen records one client IR listen pass and its slot cost.
func (m *worldMetrics) observeIRListen(slots int64) {
	if m == nil || m.irListens == nil {
		return
	}
	m.irListens.Inc()
	m.irListenSlots.Add(slots)
}

// observeReconcile records one reconciliation pass's repair/discard
// tallies and the piece-count cost distribution.
func (m *worldMetrics) observeReconcile(rec cache.Recon) {
	if m == nil || m.vrsReconciled == nil {
		return
	}
	m.vrsReconciled.Add(int64(rec.Repaired))
	m.vrsDiscarded.Add(int64(rec.Discarded))
	if rec.Repaired > 0 {
		m.reconcileCost.ObserveInt(int64(rec.Pieces))
	}
}

// observeDemoted records beyond-horizon demotions to the probabilistic
// path.
func (m *worldMetrics) observeDemoted() {
	if m == nil || m.vrsDemoted == nil {
		return
	}
	m.vrsDemoted.Inc()
}

// observeExpired records TTL evictions.
func (m *worldMetrics) observeExpired(n int64) {
	if m == nil || m.vrsExpired == nil {
		return
	}
	m.vrsExpired.Add(n)
}

// observeTrust records one query's trust-screen activity. No-op when the
// trust instruments are not registered (trust off) or nothing happened.
func (m *worldMetrics) observeTrust(rep trust.Report) {
	if m.audits == nil {
		return
	}
	m.audits.Add(int64(rep.Audits))
	m.auditFailures.Add(int64(rep.AuditFailures))
	m.conflicts.Add(int64(rep.Conflicts))
	m.convictions.Add(int64(rep.Convictions))
	m.auditSlots.Add(rep.AuditSlots)
	if rep.Audits > 0 {
		m.auditCost.ObserveInt(rep.AuditSlots)
	}
}

// observeQuery records one counted query: the per-phase span record,
// the outcome counters, and the latency/tuning/area distributions.
// Allocation-free once warm (the bench-smoke and alloc-test gates pin
// this), and called only inside the post-warm-up counted window so the
// distributions describe the same steady state as Stats.
func (m *worldMetrics) observeQuery(outcome core.Outcome, spent, auditSlots int64,
	acc broadcast.Access, merged, examined int,
	knownRegion geom.Rect, peerBytes int64) {
	m.spans.Reset()
	// Audit slots belong to the P2P phase of the query's wall clock (the
	// host is tuned in re-verifying peer claims before the algorithms
	// run); the backoff counter below stays collection-only so it keeps
	// matching Stats.BackoffSlots.
	m.spans.Add(metrics.PhaseP2PCollect, spent+auditSlots)
	m.spans.Add(metrics.PhaseMVRMerge, int64(merged))
	m.spans.Add(metrics.PhaseNNVVerify, int64(examined))
	acc.AddTo(&m.spans)
	m.phases.Observe(&m.spans)

	m.queries.Inc()
	var latency int64
	switch outcome {
	case core.OutcomeVerified:
		m.verified.Inc()
	case core.OutcomeApproximate:
		m.approximate.Inc()
	default:
		m.broadcastQ.Inc()
		// The backoff and audit slots the P2P phase burned are part of
		// the end-to-end latency, matching Stats.LatencySlots accounting.
		latency = acc.Latency + spent + auditSlots
	}
	m.latency.ObserveInt(latency)
	m.tuning.ObserveInt(acc.Tuning)
	if !knownRegion.Empty() {
		m.knownArea.Observe(knownRegion.Area())
	}
	m.backoff.Add(spent)
	m.peerBytes.Add(peerBytes - m.lastPeerBytes)
	m.lastPeerBytes = peerBytes
}

// spanFields copies the current span record into a trace event — the
// enriched per-query trace sink. No-op fields stay zero and are omitted
// from the JSONL encoding, so traces without metrics are byte-identical
// to the seed format.
func (m *worldMetrics) spanFields(p2p, merge, verify, tune, download *int64) {
	*p2p = m.spans.Get(metrics.PhaseP2PCollect)
	*merge = m.spans.Get(metrics.PhaseMVRMerge)
	*verify = m.spans.Get(metrics.PhaseNNVVerify)
	*tune = m.spans.Get(metrics.PhaseOnAirTune)
	*download = m.spans.Get(metrics.PhaseOnAirDownload)
}

// Metrics returns the World's metrics registry, or nil when the
// Metrics knob is off. The registry is single-writer (the simulation
// goroutine); concurrent readers must go through Publish/Published.
func (w *World) Metrics() *metrics.Registry {
	if w.mx == nil {
		return nil
	}
	return w.mx.reg
}
