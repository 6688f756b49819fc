package sim

import "lbsq/internal/metrics"

// worldMetrics bundles one World's registered instruments — the
// observability layer of DESIGN.md §10. It exists only when
// Params.Metrics is set; a nil worldMetrics costs one branch per query
// and one per tick and leaves every output bit-identical to a
// metrics-free build. All observed quantities are deterministic simulated
// values (slots, work units, square miles), so identical seeds produce
// byte-identical snapshots.
//
// Counters are not observed: each is a view of Stats (statCounters),
// advanced once per tick by sync. What is observed by hand is what Stats
// cannot express — distributions, phase spans and gauges.
//
// The struct is owned by the World's goroutine; the only concurrent
// consumers are published snapshots (metrics.Registry.Publish).
type worldMetrics struct {
	reg    *metrics.Registry
	spans  metrics.QuerySpans // reused per query (observation scratch)
	phases *metrics.PhaseSet

	views []counterView // the registered statCounters rows
	stats Stats         // sync's reading of World.Stats (a field, so sync allocates nothing)

	latency, tuning, fanout, knownArea *metrics.Histogram
	nowSec                             *metrics.Gauge
	// Registered only when their layer is armed; nil otherwise.
	auditCost, reconcileCost, reverifyCost *metrics.Histogram
	govEngaged                             *metrics.Gauge
}

// counterView pairs a registered counter with its Stats expression.
type counterView struct {
	c   *metrics.Counter
	get func(*Stats) int64
}

// The blocks of instruments a world registers: the base set always, the
// others only when their layer's knobs are on, so a zero-knob snapshot is
// byte-identical to a build without them.
const (
	layerBase = iota
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

// newWorldMetrics registers w's instrument set: the base instruments, and
// for each armed layer its statCounters rows and cost distribution.
func newWorldMetrics(w *World) *worldMetrics {
	p := &w.Params
	armed := [numMetricLayers]bool{
		layerBase:        true,
		layerTrust:       w.tr != nil,
		layerConsistency: w.cons != nil || p.VRTTLSec > 0,
		layerChannel:     w.chanArmed || w.planner,
		layerContinuous:  w.cont != nil,
		layerOverload:    w.ovl != nil,
	}
	reg := metrics.NewRegistry()
	m := &worldMetrics{
		reg:    reg,
		phases: metrics.NewPhaseSet(reg, "lbsq"),

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
	}
	for layer, rows := range statCounters {
		if !armed[layer] {
			continue
		}
		for _, row := range rows {
			m.views = append(m.views, counterView{reg.Counter(row.name, row.help), row.get})
		}
	}
	if armed[layerTrust] {
		m.auditCost = reg.Histogram("lbsq_trust_audit_cost_slots",
			"audit slot cost per audited query",
			"slots", metrics.SlotBuckets())
	}
	if armed[layerConsistency] {
		m.reconcileCost = reg.Histogram("lbsq_consistency_reconcile_cost_pieces",
			"surviving pieces per surgically repaired region",
			"work", metrics.WorkBuckets())
	}
	if armed[layerContinuous] {
		m.reverifyCost = reg.Histogram("lbsq_continuous_reverify_cost_slots",
			"broadcast-slot cost per subscription re-verification",
			"slots", metrics.SlotBuckets())
	}
	if armed[layerOverload] {
		m.govEngaged = reg.Gauge("lbsq_overload_governor_engaged", "load governor state (1 = shedding, 0 = idle)")
	}
	reg.Gauge("lbsq_sim_hosts", "mobile hosts in the world").Set(float64(p.MHNumber))
	w.net.FanoutHist = m.fanout
	return m
}

// sync advances every counter to its Stats expression and refreshes the
// gauges — once per tick, at the end of World.Step. Deltas are
// non-negative because every Stats tally is monotonic. Nil-safe: a
// metrics-off world pays this one check per tick.
func (m *worldMetrics) sync(w *World) {
	if m == nil {
		return
	}
	m.stats = w.Stats()
	for _, v := range m.views {
		v.c.Add(v.get(&m.stats) - v.c.Value())
	}
	m.nowSec.Set(w.nowSec)
	if m.govEngaged != nil {
		m.govEngaged.Set(0)
		if w.ovl.engaged {
			m.govEngaged.Set(1)
		}
	}
}

// observeReconcileCost records the surviving piece count of a
// reconciliation that repaired something; observeReverifyCost the slot
// cost of one subscription re-verification. Both are nil-safe and
// reachable only with their layer armed.
func (m *worldMetrics) observeReconcileCost(repaired, pieces int) {
	if m != nil && repaired > 0 {
		m.reconcileCost.ObserveInt(int64(pieces))
	}
}

func (m *worldMetrics) observeReverifyCost(slots int64) {
	if m != nil {
		m.reverifyCost.ObserveInt(slots)
	}
}

// observeQuery records one counted query's distributions: the per-phase
// span record, latency — the query's term of Stats.LatencySlots, as
// commit priced it — tuning, known area and audit cost. Allocation-free
// once warm (TestMetricsSyncAndObserveAllocFree), and called
// only inside the post-warm-up counted window so the distributions
// describe the same steady state as Stats.
func (m *worldMetrics) observeQuery(e *query, latency int64) {
	res := &e.res
	m.spans.Reset()
	// Everything that delayed the algorithms — retry backoff, rung
	// switches, IR listens, audits — is the P2P phase of the query's wall
	// clock.
	m.spans.Add(metrics.PhaseP2PCollect, e.spent)
	m.spans.Add(metrics.PhaseMVRMerge, int64(res.merged))
	m.spans.Add(metrics.PhaseNNVVerify, int64(res.examined))
	res.access.AddTo(&m.spans)
	m.phases.Observe(&m.spans)

	m.latency.ObserveInt(latency)
	m.tuning.ObserveInt(res.access.Tuning)
	if !res.knownRegion.Empty() {
		m.knownArea.Observe(res.knownRegion.Area())
	}
	if e.trep.Audits > 0 {
		m.auditCost.ObserveInt(e.trep.AuditSlots)
	}
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
