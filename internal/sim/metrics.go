package sim

import (
	"reflect"

	"lbsq/internal/metrics"
	"lbsq/internal/trace"
)

// worldMetrics bundles one World's registered histograms — the
// observability layer of DESIGN.md §10. It exists only when
// Params.Metrics is set; a nil worldMetrics costs one branch per query
// and leaves every output bit-identical to a metrics-free build. All
// observed quantities are deterministic simulated values (slots, work
// units, square miles), so identical seeds produce byte-identical
// snapshots.
//
// Counters and gauges are not observed: each is a read of Stats
// (statMetrics) or of the World that the registry calls when it
// snapshots. What is observed by hand is what Stats cannot express — the
// distributions, the per-phase spans among them.
//
// The struct is owned by the World's goroutine; the only concurrent
// consumers are published snapshots (metrics.Registry.Publish).
type worldMetrics struct {
	reg    *metrics.Registry
	phases [len(phaseHistograms)]*metrics.Histogram

	latency, tuning, fanout, knownArea *metrics.Histogram
	// Registered only when their layer is armed; nil otherwise.
	auditCost, reconcileCost, reverifyCost *metrics.Histogram
}

// PhaseHistogram is one stage of the sharing-based query lifecycle: its
// span name and cost unit. Costs are deterministic simulated quantities,
// never wall time — "slots" on the broadcast clock, "work" in units the
// algorithms process.
type PhaseHistogram struct{ Name, Unit string }

// Metric is the phase's /metrics histogram name.
func (ph PhaseHistogram) Metric() string { return "lbsq_phase_" + ph.Name + "_" + ph.Unit }

// phaseHistograms is the span taxonomy, in the order of the trace's
// span_* fields:
//
//	p2p_collect    slots spent before the algorithms ran: retry backoff,
//	               rung switches, IR listens, audits (0 when every peer
//	               answers the first request, modeled instantaneous)
//	mvr_merge      peer verified regions merged into the MVR
//	nnv_verify     candidate POIs pushed through Lemma 3.1/3.2
//	onair_tune     slots actively listened on the channel
//	onair_download slots from the query instant until the last required
//	               packet arrived (access latency)
var phaseHistograms = [...]PhaseHistogram{
	{"p2p_collect", "slots"},
	{"mvr_merge", "work"},
	{"nnv_verify", "work"},
	{"onair_tune", "slots"},
	{"onair_download", "slots"},
}

// PhaseHistograms returns the per-query phase spans a metrics-enabled
// World observes, one histogram each.
func PhaseHistograms() [len(phaseHistograms)]PhaseHistogram { return phaseHistograms }

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

// newWorldMetrics registers w's instrument set: the base instruments, a
// read of Stats for every counter of an armed section, the World's gauges
// and the cost distributions of the armed layers.
func newWorldMetrics(w *World) *worldMetrics {
	reg := metrics.NewRegistry()
	m := &worldMetrics{
		reg: reg,
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
	}
	for i, ph := range phaseHistograms {
		bounds := metrics.SlotBuckets()
		if ph.Unit == "work" {
			bounds = metrics.WorkBuckets()
		}
		m.phases[i] = reg.Histogram(ph.Metric(), "per-query cost of the "+ph.Name+" span", ph.Unit, bounds)
	}
	for i := range statMetrics {
		if sm := &statMetrics[i]; w.sectionArmed(sm.section) {
			reg.Counter(sm.name, sm.help, func() int64 {
				s := w.Stats()
				return sm.sum(&s)
			})
		}
	}
	reg.Gauge("lbsq_sim_now_seconds", "simulated clock", w.Now)
	reg.Gauge("lbsq_sim_hosts", "mobile hosts in the world", func() float64 { return float64(w.Params.MHNumber) })
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
		reg.Gauge("lbsq_overload_governor_engaged", "load governor state (1 = shedding, 0 = idle)", func() float64 {
			if w.ovl.engaged {
				return 1
			}
			return 0
		})
	}
	return m
}

// observeReconcileCost records the surviving piece count of a
// reconciliation that repaired something; observeReverifyCost the slot
// cost of one counted subscription re-verification (warm-up excluded, as
// in Stats). Both are nil-safe and reachable only with their layer armed.
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

// observeQuery records one counted query's distributions — its phase
// spans, latency (the query's term of Stats.LatencySlots, as commit
// priced it), tuning, fan-out, known area and audit cost — and sets the
// span fields of its trace event (omitted from the JSONL when zero, and
// never set with metrics off, so such traces keep the seed format).
// Allocation-free once warm (TestMetricsSyncAndObserveAllocFree), and
// called only inside the post-warm-up counted window so the distributions
// describe the same steady state as Stats.
func (m *worldMetrics) observeQuery(e *query, latency int64, ev *trace.Event) {
	res := &e.res
	spans := [len(phaseHistograms)]int64{e.spent, int64(res.merged), int64(res.examined),
		res.access.Tuning, res.access.Latency}
	for i, v := range spans {
		m.phases[i].ObserveInt(v)
	}
	ev.SpanP2PSlots, ev.SpanMergeWork, ev.SpanVerifyWork = spans[0], spans[1], spans[2]
	ev.SpanTuneSlots, ev.SpanDownloadSlots = spans[3], spans[4]

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

// Metrics returns the World's metrics registry, or nil when the
// Metrics knob is off. The registry is single-writer (the simulation
// goroutine); concurrent readers must go through Publish/Published.
func (w *World) Metrics() *metrics.Registry {
	if w.mx == nil {
		return nil
	}
	return w.mx.reg
}
