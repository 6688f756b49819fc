package sim

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"strings"

	"lbsq/internal/faults"
	"lbsq/internal/knob"
	"lbsq/internal/metrics"
)

// Report is the run record lbsq-sim prints (and every in-process bench
// cell emits): the resolved configuration, the full Stats struct, and the
// derived rates. `-json` encodes it as one compact object per line, so
// appending runs produces valid JSONL (see `make bench`); without it,
// WriteText prints the same row as text. A layer's knobs and counters are
// omitempty keys, present when armed.
type Report struct {
	BenchSchema   int            `json:"bench_schema"`
	Set           string         `json:"set"`
	Kind          string         `json:"kind"`
	Seed          int64          `json:"seed"`
	AreaMiles     float64        `json:"area_miles"`
	DurationHours float64        `json:"duration_hours"`
	MHNumber      int            `json:"mh_number"`
	POINumber     int            `json:"poi_number"`
	QueryRate     float64        `json:"query_rate"`
	TxRangeMeters float64        `json:"tx_range_meters"`
	CacheSize     int            `json:"cache_size"`
	K             int            `json:"k"`
	WindowPct     float64        `json:"window_pct"`
	Faults        faults.Profile `json:"faults"`
	// LayerKnobs flatten into the row, in declaration order.
	LayerKnobs
	SelfCheck bool    `json:"self_check_passed,omitempty"` // absent when the check did not run
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
// whose schema they do not understand.
const BenchSchemaVersion = 7

// Derived holds the rates derived from Stats, precomputed so JSONL
// consumers need no knowledge of the Stats accessor methods.
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
			FaultEvents:            stats.Events("fault"),
			ResilienceEvents:       stats.Events("resilience"),
			TrustEvents:            stats.Events("trust"),
			ConsistencyEvents:      stats.Events("consistency"),
			ChannelEvents:          stats.Events("channel"),
			AnsweredInBudgetPct:    stats.AnsweredInBudgetPct(),
			ContinuousEvents:       stats.Events("continuous"),
			ReverifyFraction:       stats.ReverifyFraction(),
			OverloadEvents:         stats.Events("overload"),
			GoodputPct:             goodput,
		},
		WallSeconds: wallSeconds,
	}
}

// WriteText prints r as text: a header line, then every non-zero knob as
// its flag under its `lbsq-sim -h` layer title, every non-zero Stats field
// under its section and the non-zero Derived rates, one "key value" line
// each, keyed as in the JSON row. Integers print exact, floats to two
// decimals.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s queries, %d hosts, %d POIs, %.2f queries/min, seed %d\n",
		r.Set, r.Kind, r.MHNumber, r.POINumber, r.QueryRate, r.Seed)
	title := ""
	line := func(heading, text string) {
		if heading != title {
			title = heading
			fmt.Fprintf(&b, "\n%s:\n", heading)
		}
		fmt.Fprintf(&b, "  %s\n", text)
	}
	p := Params{AreaMiles: r.AreaMiles, DurationHours: r.DurationHours, TxRangeMeters: r.TxRangeMeters,
		CacheSize: r.CacheSize, K: r.K, WindowPct: r.WindowPct, Faults: r.Faults, LayerKnobs: r.LayerKnobs}
	_ = p.Kind.Set(r.Kind) // an unknown kind leaves knn, whose zero prints nothing
	knob.Walk(&p, func(k knob.Knob) {
		if k.Flag != "" && !k.Value.IsZero() {
			line(cmp.Or(k.Layer, "world"), fmt.Sprintf("-%s %v", k.Flag, k.Value.Interface()))
		}
	})
	for _, s := range []reflect.Value{reflect.ValueOf(r.Stats), reflect.ValueOf(r.Derived)} {
		for i := 0; i < s.NumField(); i++ {
			f, v := s.Type().Field(i), s.Field(i)
			if !f.IsExported() || v.IsZero() {
				continue
			}
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			value := fmt.Sprintf("%.2f", v.Interface())
			if v.CanInt() {
				value = fmt.Sprint(v.Int())
			}
			line(cmp.Or(f.Tag.Get("section"), "derived"), cmp.Or(key, f.Name)+" "+value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
