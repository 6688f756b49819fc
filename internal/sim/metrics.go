package sim

import (
	"reflect"

	"lbsq/internal/metrics"
)

// worldMetrics bundles one World's registered instruments — the
// observability layer of DESIGN.md §10. It exists only when
// Params.Metrics is set; a nil worldMetrics costs one branch per query
// and one per tick and leaves every output bit-identical to a
// metrics-free build. All observed quantities are deterministic simulated
// values (slots, work units, square miles), so identical seeds produce
// byte-identical snapshots.
//
// Counters are not observed: each is a view of Stats (statMetrics),
// advanced once per tick by sync. What is observed by hand is what Stats
// cannot express — distributions, phase spans and gauges.
//
// The struct is owned by the World's goroutine; the only concurrent
// consumers are published snapshots (metrics.Registry.Publish).
type worldMetrics struct {
	reg    *metrics.Registry
	spans  metrics.QuerySpans // reused per query (observation scratch)
	phases *metrics.PhaseSet

	views    []*statMetric      // the registered statMetrics, and
	counters []*metrics.Counter // their counters
	stats    Stats              // sync's reading of World.Stats (a field, so sync allocates nothing)

	latency, tuning, fanout, knownArea *metrics.Histogram
	nowSec                             *metrics.Gauge
	// Registered only when their layer is armed; nil otherwise.
	auditCost, reconcileCost, reverifyCost *metrics.Histogram
	govEngaged                             *metrics.Gauge
}

// statMetric is one /metrics counter declared on Stats: the `metric` tag's
// name, the `help` and `section` of its first field, and the indexes of
// every field carrying the name, whose values it sums.
type statMetric struct {
	name, help, section string
	fields              []int
}

// statMetrics is the whole counter surface of /metrics, read once off the
// Stats tags in declaration order (DESIGN.md §10.2).
var statMetrics = func() []statMetric {
	var out []statMetric
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		tag := typ.Field(i).Tag
		name, ok := tag.Lookup("metric")
		if !ok {
			continue
		}
		j := 0
		for j < len(out) && out[j].name != name {
			j++
		}
		if j == len(out) {
			out = append(out, statMetric{name: name, help: tag.Get("help"), section: tag.Get("section")})
		}
		out[j].fields = append(out[j].fields, i)
	}
	return out
}()

// sum is the counter's value on s. It allocates nothing.
func (sm *statMetric) sum(s *Stats) int64 {
	v := reflect.ValueOf(s).Elem()
	n := int64(0)
	for _, i := range sm.fields {
		n += v.Field(i).Int()
	}
	return n
}

// sectionArmed reports whether w registers the instruments of a Stats
// section: those of the trust, consistency, channel, continuous and
// overload layers only when the layer is armed, so a zero-knob snapshot is
// byte-identical to a build without them; every other section always.
func (w *World) sectionArmed(section string) bool {
	switch section {
	case "trust":
		return w.tr != nil
	case "consistency":
		return w.cons != nil || w.Params.VRTTLSec > 0
	case "channel":
		return w.chanArmed || w.planner
	case "continuous":
		return w.cont != nil
	case "overload":
		return w.ovl != nil
	}
	return true
}

// newWorldMetrics registers w's instrument set: the base instruments, the
// counters of every armed section and the cost distributions of the armed
// layers.
func newWorldMetrics(w *World) *worldMetrics {
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
	for i := range statMetrics {
		if sm := &statMetrics[i]; w.sectionArmed(sm.section) {
			m.views, m.counters = append(m.views, sm), append(m.counters, reg.Counter(sm.name, sm.help))
		}
	}
	if w.sectionArmed("trust") {
		m.auditCost = reg.Histogram("lbsq_trust_audit_cost_slots",
			"audit slot cost per audited query",
			"slots", metrics.SlotBuckets())
	}
	if w.sectionArmed("consistency") {
		m.reconcileCost = reg.Histogram("lbsq_consistency_reconcile_cost_pieces",
			"surviving pieces per surgically repaired region",
			"work", metrics.WorkBuckets())
	}
	if w.sectionArmed("continuous") {
		m.reverifyCost = reg.Histogram("lbsq_continuous_reverify_cost_slots",
			"broadcast-slot cost per subscription re-verification",
			"slots", metrics.SlotBuckets())
	}
	if w.sectionArmed("overload") {
		m.govEngaged = reg.Gauge("lbsq_overload_governor_engaged", "load governor state (1 = shedding, 0 = idle)")
	}
	reg.Gauge("lbsq_sim_hosts", "mobile hosts in the world").Set(float64(w.Params.MHNumber))
	return m
}

// sync advances every counter to its Stats sum and refreshes the gauges —
// once per tick, at the end of World.Step. Deltas are non-negative because
// every Stats tally is monotonic. Nil-safe: a metrics-off world pays this
// one check per tick.
func (m *worldMetrics) sync(w *World) {
	if m == nil {
		return
	}
	m.stats = w.Stats()
	for i, c := range m.counters {
		c.Add(m.views[i].sum(&m.stats) - c.Value())
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
// commit priced it — tuning, fan-out, known area and audit cost.
// Allocation-free once warm (TestMetricsSyncAndObserveAllocFree), and
// called only inside the post-warm-up counted window so the distributions
// describe the same steady state as Stats.
func (m *worldMetrics) observeQuery(e *query, latency int64) {
	res := &e.res
	m.spans.Reset()
	// Everything that delayed the algorithms — retry backoff, rung
	// switches, IR listens, audits — is the P2P phase of the query's wall
	// clock; active listening on air is the tune phase and the access
	// latency the download phase.
	m.spans.Add(metrics.PhaseP2PCollect, e.spent)
	m.spans.Add(metrics.PhaseMVRMerge, int64(res.merged))
	m.spans.Add(metrics.PhaseNNVVerify, int64(res.examined))
	m.spans.Add(metrics.PhaseOnAirTune, res.access.Tuning)
	m.spans.Add(metrics.PhaseOnAirDownload, res.access.Latency)
	m.phases.Observe(&m.spans)

	m.fanout.ObserveInt(int64(e.nPeers))
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
