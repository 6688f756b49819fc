package sim

import "lbsq/internal/metrics"

// Report is the machine-readable run record the `-json` flag of
// lbsq-sim (and every in-process bench cell) emits: the resolved
// configuration, the full Stats struct, and the derived rates the human
// report prints. One compact object per line, so appending runs
// produces valid JSONL (see `make bench`).
//
// BenchSchema versions the row format: consumers should skip rows whose
// schema they do not understand. Every row carries BenchSchemaVersion;
// a layer's knobs and counters are omitempty keys, present when armed.
type Report struct {
	BenchSchema     int     `json:"bench_schema"`
	Set             string  `json:"set"`
	Kind            string  `json:"kind"`
	Seed            int64   `json:"seed"`
	AreaMiles       float64 `json:"area_miles"`
	DurationHours   float64 `json:"duration_hours"`
	MHNumber        int     `json:"mh_number"`
	POINumber       int     `json:"poi_number"`
	QueryRate       float64 `json:"query_rate"`
	TxRangeMeters   float64 `json:"tx_range_meters"`
	CacheSize       int     `json:"cache_size"`
	K               int     `json:"k"`
	WindowPct       float64 `json:"window_pct"`
	Faults          any     `json:"faults"`
	DeadlineSlots   int     `json:"deadline_slots"`
	BreakerThresh   int     `json:"breaker_threshold"`
	BreakerCooldown int64   `json:"breaker_cooldown"`
	// AuditRate is the trust-layer knob (internal/trust); omitted when
	// zero so zero-knob rows keep the earlier schema byte-for-byte (the
	// byzantine knobs live inside Faults, omitempty likewise).
	AuditRate float64 `json:"audit_rate,omitempty"`
	// Consistency-layer knobs (DESIGN.md §12), all omitted when zero or
	// false under the same contract.
	UpdateRate  float64 `json:"update_rate,omitempty"`
	IRPeriodSec float64 `json:"ir_period_sec,omitempty"`
	IRWindow    int     `json:"ir_window,omitempty"`
	VRTTLSec    float64 `json:"vr_ttl_sec,omitempty"`
	IRDiscard   bool    `json:"ir_discard,omitempty"`
	// DegradedMode arms the fallback-ladder planner (DESIGN.md §13); the
	// burst/blackout knobs ride inside Faults (omitempty likewise).
	DegradedMode bool `json:"degraded_mode,omitempty"`
	// Continuous-query knobs (DESIGN.md §15), omitted when zero/false
	// under the same contract.
	ContinuousRate  float64 `json:"continuous_rate,omitempty"`
	ContinuousNaive bool    `json:"continuous_naive,omitempty"`
	// Flash-crowd and overload-control knobs (DESIGN.md §16), omitted
	// when zero/false under the same contract.
	CrowdRate           float64 `json:"crowd_rate,omitempty"`
	CrowdRadiusMiles    float64 `json:"crowd_radius_miles,omitempty"`
	CrowdCenterXMiles   float64 `json:"crowd_center_x_miles,omitempty"`
	CrowdCenterYMiles   float64 `json:"crowd_center_y_miles,omitempty"`
	CrowdStartSec       float64 `json:"crowd_start_sec,omitempty"`
	CrowdDurationSec    float64 `json:"crowd_duration_sec,omitempty"`
	PeerQueueCap        int     `json:"peer_queue_cap,omitempty"`
	RetryBudget         int     `json:"retry_budget,omitempty"`
	AdmissionRate       float64 `json:"admission_rate,omitempty"`
	AdmissionBurst      int     `json:"admission_burst,omitempty"`
	Governed            bool    `json:"governed,omitempty"`
	GovernorFloor       float64 `json:"governor_floor,omitempty"`
	CoalesceRadiusMiles float64 `json:"coalesce_radius_miles,omitempty"`
	SelfCheck           bool    `json:"self_check_passed"`
	Stats               Stats   `json:"stats"`
	Derived             Derived `json:"derived"`
	// Metrics is the final registry snapshot of a metrics-enabled run
	// (World.Metrics().Snapshot()). Nil — and absent from the encoding —
	// when the Metrics knob is off, preserving byte-identity with
	// pre-metrics report rows.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// WallSeconds is the host wall-clock cost of the run. It is the one
	// nondeterministic field; byte-identity comparisons must zero it
	// first.
	WallSeconds float64 `json:"wall_seconds"`
}

// BenchSchemaVersion is the Report row format. Versions 2–6 told armed
// layers apart, which the omitempty keys already do; 7 is the first one
// every row carries.
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
	// Callers may pass pre-default Params: armed rows record the knob
	// values actually simulated (defaults materialize only for armed
	// layers, so zero-knob rows are untouched).
	p.applyDefaults()
	// GoodputPct is nonzero on every run (it partitions the outcomes), so
	// it only rides rows that carry the overload knobs — zero-knob rows
	// must stay byte-identical to the earlier schemas.
	goodput := 0.0
	if p.CrowdEnabled() || p.OverloadEnabled() {
		goodput = stats.GoodputPct()
	}
	return Report{
		BenchSchema:         BenchSchemaVersion,
		Set:                 p.Name,
		Kind:                p.Kind.String(),
		Seed:                p.Seed,
		AreaMiles:           p.AreaMiles,
		DurationHours:       p.DurationHours,
		MHNumber:            p.MHNumber,
		POINumber:           p.POINumber,
		QueryRate:           p.QueryRate,
		TxRangeMeters:       p.TxRangeMeters,
		CacheSize:           p.CacheSize,
		K:                   p.K,
		WindowPct:           p.WindowPct,
		Faults:              p.Faults,
		DeadlineSlots:       p.DeadlineSlots,
		BreakerThresh:       p.BreakerThreshold,
		BreakerCooldown:     p.BreakerCooldown,
		AuditRate:           p.AuditRate,
		UpdateRate:          p.UpdateRate,
		IRPeriodSec:         p.IRPeriodSec,
		IRWindow:            p.IRWindow,
		VRTTLSec:            p.VRTTLSec,
		IRDiscard:           p.IRDiscard,
		DegradedMode:        p.DegradedMode,
		ContinuousRate:      p.ContinuousRate,
		ContinuousNaive:     p.ContinuousNaive,
		CrowdRate:           p.CrowdRate,
		CrowdRadiusMiles:    p.CrowdRadiusMiles,
		CrowdCenterXMiles:   p.CrowdCenterXMiles,
		CrowdCenterYMiles:   p.CrowdCenterYMiles,
		CrowdStartSec:       p.CrowdStartSec,
		CrowdDurationSec:    p.CrowdDurationSec,
		PeerQueueCap:        p.PeerQueueCap,
		RetryBudget:         p.RetryBudget,
		AdmissionRate:       p.AdmissionRate,
		AdmissionBurst:      p.AdmissionBurst,
		Governed:            p.Governed,
		GovernorFloor:       p.GovernorFloor,
		CoalesceRadiusMiles: p.CoalesceRadiusMiles,
		SelfCheck:           selfChecked,
		Stats:               stats,
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
