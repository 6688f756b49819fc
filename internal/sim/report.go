package sim

import "lbsq/internal/metrics"

// Report is the machine-readable run record the `-json` flag of
// lbsq-sim (and every in-process bench cell) emits: the resolved
// configuration, the full Stats struct, and the derived rates the human
// report prints. One compact object per line, so appending runs
// produces valid JSONL (see `make bench`). A layer's knobs and counters
// are omitempty keys, present when armed.
type Report struct {
	BenchSchema   int     `json:"bench_schema"`
	Set           string  `json:"set"`
	Kind          string  `json:"kind"`
	Seed          int64   `json:"seed"`
	AreaMiles     float64 `json:"area_miles"`
	DurationHours float64 `json:"duration_hours"`
	MHNumber      int     `json:"mh_number"`
	POINumber     int     `json:"poi_number"`
	QueryRate     float64 `json:"query_rate"`
	TxRangeMeters float64 `json:"tx_range_meters"`
	CacheSize     int     `json:"cache_size"`
	K             int     `json:"k"`
	WindowPct     float64 `json:"window_pct"`
	Faults        any     `json:"faults"`
	// LayerKnobs flatten into the row, in declaration order.
	LayerKnobs
	SelfCheck bool    `json:"self_check_passed"`
	Stats     Stats   `json:"stats"`
	Derived   Derived `json:"derived"`
	// Metrics is the final registry snapshot of a metrics-enabled run
	// (World.Metrics().Snapshot()); nil, and absent from the encoding,
	// when the Metrics knob is off.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// WallSeconds is the host wall-clock cost of the run, the one
	// nondeterministic field: byte-identity comparisons zero it first.
	WallSeconds float64 `json:"wall_seconds"`
}

// BenchSchemaVersion is the Report row format; consumers should skip rows
// whose schema they do not understand. Versions 2–6 told armed layers
// apart, which the omitempty keys already do; 7 is the first one every row
// carries.
const BenchSchemaVersion = 7

// Derived holds the rates the human-readable report prints, precomputed
// so JSONL consumers need no knowledge of the Stats accessor methods.
type Derived struct {
	VerifiedPct            float64 `json:"verified_pct"`
	ApproximatePct         float64 `json:"approximate_pct"`
	BroadcastPct           float64 `json:"broadcast_pct"`
	AvgPeers               float64 `json:"avg_peers"`
	AvgLatencySlots        float64 `json:"avg_latency_slots"`
	AvgTuningSlots         float64 `json:"avg_tuning_slots"`
	MeanSystemLatencySlots float64 `json:"mean_system_latency_slots"`
	AvgPeerBytes           float64 `json:"avg_peer_bytes"`
	FaultEvents            int64   `json:"fault_events"`
	ResilienceEvents       int64   `json:"resilience_events"`
	TrustEvents            int64   `json:"trust_events,omitempty"`
	ConsistencyEvents      int64   `json:"consistency_events,omitempty"`
	ChannelEvents          int64   `json:"channel_events,omitempty"`
	AnsweredInBudgetPct    float64 `json:"answered_in_budget_pct,omitempty"`
	ContinuousEvents       int64   `json:"continuous_events,omitempty"`
	ReverifyFraction       float64 `json:"reverify_fraction,omitempty"`
	OverloadEvents         int64   `json:"overload_events,omitempty"`
	GoodputPct             float64 `json:"goodput_pct,omitempty"`
}

// NewReport assembles the Report for a finished run.
func NewReport(p Params, stats Stats, selfChecked bool, wallSeconds float64) Report {
	// Callers may pass pre-default Params: armed rows record the values
	// simulated (defaults materialize only for armed layers).
	p.applyDefaults()
	// GoodputPct is nonzero on every run (it partitions the outcomes), so
	// it rides only rows that carry the crowd or overload knobs.
	goodput := 0.0
	if p.CrowdEnabled() || p.OverloadEnabled() {
		goodput = stats.GoodputPct()
	}
	return Report{
		BenchSchema:   BenchSchemaVersion,
		Set:           p.Name,
		Kind:          p.Kind.String(),
		Seed:          p.Seed,
		AreaMiles:     p.AreaMiles,
		DurationHours: p.DurationHours,
		MHNumber:      p.MHNumber,
		POINumber:     p.POINumber,
		QueryRate:     p.QueryRate,
		TxRangeMeters: p.TxRangeMeters,
		CacheSize:     p.CacheSize,
		K:             p.K,
		WindowPct:     p.WindowPct,
		Faults:        p.Faults,
		LayerKnobs:    p.LayerKnobs,
		SelfCheck:     selfChecked,
		Stats:         stats,
		Derived: Derived{
			VerifiedPct:            stats.VerifiedPct(),
			ApproximatePct:         stats.ApproximatePct(),
			BroadcastPct:           stats.BroadcastPct(),
			AvgPeers:               stats.AvgPeers(),
			AvgLatencySlots:        stats.AvgLatencySlots(),
			AvgTuningSlots:         stats.AvgTuningSlots(),
			MeanSystemLatencySlots: stats.MeanSystemLatencySlots(),
			AvgPeerBytes:           stats.AvgPeerBytes(),
			FaultEvents:            stats.FaultEvents(),
			ResilienceEvents:       stats.ResilienceEvents(),
			TrustEvents:            stats.TrustEvents(),
			ConsistencyEvents:      stats.ConsistencyEvents(),
			ChannelEvents:          stats.ChannelEvents(),
			AnsweredInBudgetPct:    stats.AnsweredInBudgetPct(),
			ContinuousEvents:       stats.ContinuousEvents(),
			ReverifyFraction:       stats.ReverifyFraction(),
			OverloadEvents:         stats.OverloadEvents(),
			GoodputPct:             goodput,
		},
		WallSeconds: wallSeconds,
	}
}
