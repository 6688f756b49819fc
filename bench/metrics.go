package main

// metricDef declares one benchmark metric. BENCHMARK.json carries the
// same names, units, directions and bounds; TestRegistryMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Host marks host-time/host-memory metrics (H); the rest are
	// simulated statistics (S), exact for a (workload, seed, seconds).
	Host bool
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; none is ever zero. The bounds are about three
// times the worst spread (IQR / median over ten seeds) any workload
// showed on the sizing box, capped at the 25 % the contract allows
// (README "End-to-end metrics" has the measured spreads).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "host_us_per_query", Unit: "us", Better: "lower", Bound: 0.25, Host: true},
	{Name: "tick_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20, Host: true},
	{Name: "tick_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, Host: true},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.20, Host: true},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.25, Host: true},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Host: true},
	{Name: "shared_pct", Unit: "%", Better: "higher", Bound: 0.08},
	{Name: "latency_slots_per_query", Unit: "slots", Better: "lower", Bound: 0.10},
	{Name: "peer_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.08},
}

// cpuLayers are the layers CPU samples of the traced run are charged to:
// the internal packages on the query path, plus gc (background collector
// goroutines) and other (runtime, harness, everything else).
var cpuLayers = []string{"sim", "core", "geom", "broadcast", "hilbert", "p2p",
	"mobility", "cache", "wire", "trust", "faults", "metrics", "trace", "gc", "other"}

// countMetrics are the exact per-layer counts of the traced run, taken
// from the simulator's public counters over the timed window.
var countMetrics = []metricDef{
	{Name: "count.p2p.neighbors_per_query", Unit: "count", Better: "higher"},
	{Name: "count.p2p.requests_per_query", Unit: "count", Better: "lower"},
	{Name: "count.p2p.replies_per_query", Unit: "count", Better: "lower"},
	{Name: "count.p2p.retries_per_query", Unit: "count", Better: "lower"},
	{Name: "count.p2p.breaker_short_circuits_per_query", Unit: "count", Better: "higher"},
	{Name: "count.wire.bytes_per_reply", Unit: "B", Better: "lower"},
	{Name: "count.wire.rejected_per_1k_replies", Unit: "count", Better: "lower"},
	{Name: "count.faults.replies_dropped_per_1k", Unit: "count", Better: "lower"},
	{Name: "count.core.verified_pct", Unit: "%", Better: "higher"},
	{Name: "count.core.approximate_pct", Unit: "%", Better: "higher"},
	{Name: "count.core.broadcast_pct", Unit: "%", Better: "lower"},
	{Name: "count.core.mvr_rects_per_query", Unit: "count", Better: "lower"},
	{Name: "count.core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "count.broadcast.packets_read_per_onair_query", Unit: "count", Better: "lower"},
	{Name: "count.broadcast.packet_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "count.broadcast.tuning_slots_per_onair_query", Unit: "slots", Better: "lower"},
	{Name: "count.broadcast.latency_slots_per_onair_query", Unit: "slots", Better: "lower"},
	{Name: "count.broadcast.retransmissions_per_onair_query", Unit: "count", Better: "lower"},
	{Name: "count.trust.audits_per_query", Unit: "count", Better: "lower"},
	{Name: "count.trust.audit_slots_per_query", Unit: "slots", Better: "lower"},
	{Name: "count.trust.conflicts_per_query", Unit: "count", Better: "lower"},
	{Name: "count.trust.quarantined_peers", Unit: "count", Better: "lower"},
	{Name: "count.cache.vrs_reconciled_per_ir", Unit: "count", Better: "lower"},
	{Name: "count.cache.vrs_demoted_per_ir", Unit: "count", Better: "lower"},
	{Name: "count.sim.ir_listen_slots_per_query", Unit: "slots", Better: "lower"},
	{Name: "count.sim.reverify_fraction", Unit: "ratio", Better: "lower"},
	{Name: "count.sim.deadline_aborts_per_query", Unit: "count", Better: "lower"},
	{Name: "count.sim.backoff_slots_per_query", Unit: "slots", Better: "lower"},
}

// replaySpans are the spans of the layer replay that carry metrics: one
// per exported call on the plain query path, then the shadow spans.
var replaySpans = spanNames[spMobilityStep:]

// perLayer is the full per-layer metric list of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: "cpu." + l + ".us_per_query", Unit: "us", Better: "lower", Host: true})
	}
	out = append(out, countMetrics...)
	for _, s := range replaySpans {
		out = append(out,
			metricDef{Name: s + ".ns_per_call", Unit: "ns", Better: "lower", Host: true},
			metricDef{Name: s + ".ns_p90", Unit: "ns", Better: "lower", Host: true},
			metricDef{Name: s + ".calls_per_query", Unit: "count", Better: "lower"})
	}
	return out
}
