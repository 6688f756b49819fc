// Package experiments regenerates every evaluation figure of the paper
// (Figures 10–15), the latency-reduction headline of Sections 3.3.3/5,
// and the hit-ratio analysis comparison, by sweeping the simulator over
// the same parameter ranges and printing the same series the paper plots.
//
// Runs default to a density-preserving 5-mile scale of the Table 3
// parameter sets (see sim.Params.Scaled); the cmd/lbsq-figures tool can
// run any scale up to the full 20-mile, 93,300-vehicle configuration.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"lbsq/internal/analysis"
	"lbsq/internal/cache"
	"lbsq/internal/sim"
	"lbsq/internal/svgplot"
	"lbsq/internal/sweep"
)

// Options tunes the experiment scale. The zero value selects the default
// scale (5-mile area, 0.5 simulated hours).
type Options struct {
	// SideMiles is the side of the density-preserved service area.
	SideMiles float64
	// DurationHours is the simulated duration per cell.
	DurationHours float64
	// TimeStepSec is the simulation step.
	TimeStepSec float64
	// Seed drives all randomness.
	Seed int64
	// PrefillPerHost is the steady-state warm start (mean historical
	// queries per host cache); defaults to 10, matching the cache fill
	// the paper's 10-hour runs reach before measurement. Negative
	// disables.
	PrefillPerHost float64
	// workers overrides the sweep worker count, sweep.Workers() when zero;
	// the identity tests set it. Output is bit-identical for every count
	// (each cell owns its seeded world; results reassemble by cell index).
	workers int
}

func (o *Options) applyDefaults() {
	if o.SideMiles == 0 {
		o.SideMiles = 5
	}
	if o.DurationHours == 0 {
		o.DurationHours = 0.5
	}
	if o.TimeStepSec == 0 {
		o.TimeStepSec = 10
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PrefillPerHost == 0 {
		o.PrefillPerHost = 10
	}
	if o.workers == 0 {
		o.workers = sweep.Workers()
	}
}

// Fast returns a reduced scale for quick runs (benchmarks, smoke tests).
func Fast() Options {
	return Options{SideMiles: 3, DurationHours: 0.2, TimeStepSec: 15, Seed: 42}
}

// Point is one x-position of a figure series.
type Point struct {
	// X is the swept parameter value (meters, POIs, k, or percent).
	X float64
	// VerifiedPct/ApproximatePct/BroadcastPct are the shares of total
	// queries, as plotted in the paper's stacked series.
	VerifiedPct    float64
	ApproximatePct float64
	BroadcastPct   float64
	// Stats carries the full simulation statistics behind the point.
	Stats sim.Stats
}

// Series is one parameter set's curve.
type Series struct {
	SetName string
	Points  []Point
}

// Figure is a complete reproduced figure: one series per Table 3
// parameter set.
type Figure struct {
	ID     string // e.g. "Fig10"
	Title  string
	XLabel string
	// HasApproximate distinguishes the kNN figures (three stacked
	// series) from the window figures (two).
	HasApproximate bool
	Series         []Series
}

// cell is the Params of one simulation cell on parameter set base: o's
// scale, duration, step, seed and warm start.
func (o Options) cell(base sim.Params) sim.Params {
	p := base.Scaled(o.SideMiles).WithDuration(o.DurationHours)
	p.TimeStepSec = o.TimeStepSec
	p.Seed = o.Seed
	if o.PrefillPerHost > 0 {
		p.PrefillQueriesPerHost = o.PrefillPerHost
	}
	return p
}

// mustWorld builds the world of a cell; its parameters are internal, so
// an error is a bug.
func mustWorld(p sim.Params) *sim.World {
	w, err := sim.NewWorld(p)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return w
}

// runCell executes one simulation cell.
func runCell(base sim.Params, o Options, mutate func(*sim.Params)) sim.Stats {
	p := o.cell(base)
	mutate(&p)
	return mustWorld(p).Run()
}

// runSweep builds a figure by running every (parameter set × x value)
// cell through the sweep engine. Cells are independent simulations —
// each owns its seeded world — so the figure is bit-identical for every
// worker count (sweep's determinism contract).
func runSweep(id, title, xlabel string, approx bool, xs []float64, o Options,
	mutate func(*sim.Params, float64)) Figure {
	o.applyDefaults()
	fig := Figure{ID: id, Title: title, XLabel: xlabel, HasApproximate: approx}
	sets := sim.ParameterSets()

	type cellKey struct {
		si int
		x  float64
	}
	var keys []cellKey
	for si := range sets {
		for _, x := range xs {
			keys = append(keys, cellKey{si: si, x: x})
		}
	}
	flat := sweep.Map(o.workers, keys, func(_ int, k cellKey) Point {
		stats := runCell(sets[k.si], o, func(p *sim.Params) { mutate(p, k.x) })
		return Point{
			X:              k.x,
			VerifiedPct:    stats.VerifiedPct(),
			ApproximatePct: stats.ApproximatePct(),
			BroadcastPct:   stats.BroadcastPct(),
			Stats:          stats,
		}
	})

	for si, base := range sets {
		fig.Series = append(fig.Series, Series{
			SetName: base.Name,
			Points:  flat[si*len(xs) : (si+1)*len(xs)],
		})
	}
	return fig
}

// TxRangeSweep is the transmission-range axis of Figures 10 and 13.
func TxRangeSweep() []float64 {
	return []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
}

// CacheSweep is the cache-capacity axis of Figures 11 and 14.
func CacheSweep() []float64 { return []float64{6, 12, 18, 24, 30} }

// KSweep is the k axis of Figure 12.
func KSweep() []float64 { return []float64{3, 6, 9, 12, 15} }

// WindowSweep is the window-size axis of Figure 15 (percent).
func WindowSweep() []float64 { return []float64{1, 2, 3, 4, 5} }

// Fig10 reproduces Figure 10: percentage of kNN queries resolved by SBNN
// / approximate SBNN / the broadcast channel as a function of the
// wireless transmission range (10–200 m).
func Fig10(o Options) Figure {
	return runSweep("Fig10",
		"kNN queries resolved vs. transmission range",
		"Transmission Range (m)", true, TxRangeSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.KNNQuery
			p.TxRangeMeters = x
			p.AcceptApproximate = true
		})
}

// Fig11 reproduces Figure 11: kNN resolution shares as a function of the
// mobile host cache capacity (6–30 POIs).
func Fig11(o Options) Figure {
	return runSweep("Fig11",
		"kNN queries resolved vs. cache capacity",
		"Number of Cached Items", true, CacheSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.KNNQuery
			p.CacheSize = int(x)
			p.AcceptApproximate = true
		})
}

// Fig12 reproduces Figure 12: kNN resolution shares as a function of the
// requested number of nearest neighbors k (3–15).
func Fig12(o Options) Figure {
	return runSweep("Fig12",
		"kNN queries resolved vs. k",
		"Number of k", true, KSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.KNNQuery
			p.K = int(x)
			p.AcceptApproximate = true
		})
}

// windowScale doubles the service-area side for window-query figures:
// broadcast window retrievals cache capacity-sized regions (~2.7 mi in
// LA), so the coverage dynamics need a map much larger than one region —
// see DESIGN.md. Densities are still preserved.
func windowScale(o Options) Options {
	o.applyDefaults()
	o.SideMiles *= 2
	return o
}

// Fig13 reproduces Figure 13: percentage of window queries resolved by
// SBWQ / the broadcast channel as a function of the transmission range.
func Fig13(o Options) Figure {
	o = windowScale(o)
	return runSweep("Fig13",
		"window queries resolved vs. transmission range",
		"Transmission Range (m)", false, TxRangeSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.WindowQuery
			p.TxRangeMeters = x
		})
}

// Fig14 reproduces Figure 14: window-query resolution shares as a
// function of the cache capacity.
func Fig14(o Options) Figure {
	o = windowScale(o)
	return runSweep("Fig14",
		"window queries resolved vs. cache capacity",
		"Number of Cached Items", false, CacheSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.WindowQuery
			p.CacheSize = int(x)
		})
}

// Fig15 reproduces Figure 15: window-query resolution shares as a
// function of the query window size (1–5% of the search space side).
func Fig15(o Options) Figure {
	o = windowScale(o)
	return runSweep("Fig15",
		"window queries resolved vs. window size",
		"Query Window Size (%)", false, WindowSweep(), o,
		func(p *sim.Params, x float64) {
			p.Kind = sim.WindowQuery
			p.WindowPct = x
		})
}

// Figures runs every figure reproduction.
func Figures(o Options) []Figure {
	return []Figure{Fig10(o), Fig11(o), Fig12(o), Fig13(o), Fig14(o), Fig15(o)}
}

// ByID returns a single figure by its identifier ("Fig10".."Fig15",
// case-insensitive, "10".."15" accepted).
func ByID(id string, o Options) (Figure, error) {
	switch strings.ToLower(strings.TrimPrefix(strings.ToLower(id), "fig")) {
	case "10":
		return Fig10(o), nil
	case "11":
		return Fig11(o), nil
	case "12":
		return Fig12(o), nil
	case "13":
		return Fig13(o), nil
	case "14":
		return Fig14(o), nil
	case "15":
		return Fig15(o), nil
	}
	return Figure{}, fmt.Errorf("experiments: unknown figure %q", id)
}

// WriteTo renders the figure as the aligned table the paper's plots
// correspond to.
func (f Figure) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\n  %s\n", s.SetName)
		if f.HasApproximate {
			fmt.Fprintf(&b, "  %-26s %10s %12s %12s\n",
				f.XLabel, "SBNN %", "Approx %", "Broadcast %")
			for _, p := range s.Points {
				fmt.Fprintf(&b, "  %-26.0f %10.1f %12.1f %12.1f\n",
					p.X, p.VerifiedPct, p.ApproximatePct, p.BroadcastPct)
			}
		} else {
			fmt.Fprintf(&b, "  %-26s %10s %12s\n", f.XLabel, "SBWQ %", "Broadcast %")
			for _, p := range s.Points {
				fmt.Fprintf(&b, "  %-26.0f %10.1f %12.1f\n",
					p.X, p.VerifiedPct, p.BroadcastPct)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Chart converts the figure into a plottable line chart of the
// peer-resolved share (SBNN+approximate for kNN figures, SBWQ for window
// figures) with one series per Table 3 parameter set.
func (f Figure) Chart() svgplot.Chart {
	c := svgplot.Chart{
		Title:  fmt.Sprintf("%s — %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: "queries resolved by sharing (%)",
		FixedY: true, YMin: 0, YMax: 100,
	}
	for _, s := range f.Series {
		ps := svgplot.Series{Name: s.SetName}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.X)
			ps.Y = append(ps.Y, p.VerifiedPct+p.ApproximatePct)
		}
		c.Series = append(c.Series, ps)
	}
	return c
}

// LatencyRow summarizes the latency/channel-access reduction for one
// parameter set (the up-to-80% headline of the conclusions).
type LatencyRow struct {
	SetName string
	// SharedMeanLatencySlots is the mean access latency per query with
	// sharing enabled (peer-resolved queries contribute zero).
	SharedMeanLatencySlots float64
	// BaselineMeanLatencySlots is the mean plain on-air latency over the
	// same workload.
	BaselineMeanLatencySlots float64
	// LatencyReductionPct = 100·(1 − shared/baseline).
	LatencyReductionPct float64
	// ChannelAccessAvoidedPct is the share of queries that never touched
	// the channel.
	ChannelAccessAvoidedPct float64
	// PacketsPerQuery / BaselinePacketsPerQuery compare downloaded data
	// volumes.
	PacketsPerQuery         float64
	BaselinePacketsPerQuery float64
}

// LatencyReduction measures, per parameter set, how much access latency
// and channel traffic sharing removes relative to the pure on-air
// algorithms.
func LatencyReduction(o Options) []LatencyRow {
	o.applyDefaults()
	var rows []LatencyRow
	for _, base := range sim.ParameterSets() {
		p := o.cell(base)
		p.Kind = sim.KNNQuery
		p.AcceptApproximate = true
		w := mustWorld(p)
		w.CompareBaseline = true
		stats := w.Run()

		row := LatencyRow{
			SetName:                  base.Name,
			SharedMeanLatencySlots:   stats.MeanSystemLatencySlots(),
			BaselineMeanLatencySlots: stats.BaselineMeanLatencySlots(),
			ChannelAccessAvoidedPct:  stats.SharedPct(),
		}
		if stats.Queries > 0 {
			row.PacketsPerQuery = float64(stats.PacketsRead) / float64(stats.Queries)
		}
		if stats.BaselineSampled > 0 {
			row.BaselinePacketsPerQuery =
				float64(stats.BaselinePackets) / float64(stats.BaselineSampled)
		}
		if row.BaselineMeanLatencySlots > 0 {
			row.LatencyReductionPct =
				100 * (1 - row.SharedMeanLatencySlots/row.BaselineMeanLatencySlots)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteLatency renders the latency table.
func WriteLatency(w io.Writer, rows []LatencyRow) {
	fmt.Fprintf(w, "Access-latency reduction (kNN, Table 3 defaults)\n")
	fmt.Fprintf(w, "  %-20s %14s %14s %10s %12s %12s %12s\n",
		"Parameter set", "shared slots", "on-air slots", "latency -%",
		"avoided %", "pkts/query", "base pkts")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %14.1f %14.1f %10.1f %12.1f %12.2f %12.2f\n",
			r.SetName, r.SharedMeanLatencySlots, r.BaselineMeanLatencySlots,
			r.LatencyReductionPct, r.ChannelAccessAvoidedPct,
			r.PacketsPerQuery, r.BaselinePacketsPerQuery)
	}
}

// AnalysisRow compares the probabilistic hit-ratio model with simulation.
type AnalysisRow struct {
	SetName      string
	TxMeters     float64
	PredictedPct float64
	SimulatedPct float64
}

// AnalysisVsSim sweeps the transmission range per parameter set and
// reports the analytic sharing hit ratio next to the simulated fraction
// of fully peer-resolved kNN queries.
func AnalysisVsSim(o Options) []AnalysisRow {
	o.applyDefaults()
	var rows []AnalysisRow
	for _, base := range sim.ParameterSets() {
		for _, tx := range []float64{50, 100, 150, 200} {
			stats := runCell(base, o, func(p *sim.Params) {
				p.Kind = sim.KNNQuery
				p.TxRangeMeters = tx
				p.AcceptApproximate = false
			})
			m := analysis.Model{
				MHDensity:     base.MHDensity(),
				POIDensity:    base.POIDensity(),
				TxRangeMiles:  tx / sim.MetersPerMile,
				CacheSize:     base.CacheSize,
				LocalityMiles: 1.5,
			}
			rows = append(rows, AnalysisRow{
				SetName:      base.Name,
				TxMeters:     tx,
				PredictedPct: 100 * m.KNNHitRatio(base.K),
				SimulatedPct: stats.VerifiedPct(),
			})
		}
	}
	return rows
}

// WriteAnalysis renders the analysis-vs-simulation table.
func WriteAnalysis(w io.Writer, rows []AnalysisRow) {
	fmt.Fprintf(w, "Hit-ratio analysis vs. simulation (kNN fully peer-resolved)\n")
	fmt.Fprintf(w, "  %-20s %10s %12s %12s\n", "Parameter set", "range m", "model %", "sim %")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %10.0f %12.1f %12.1f\n",
			r.SetName, r.TxMeters, r.PredictedPct, r.SimulatedPct)
	}
}

// PolicyRow is one cache-policy ablation cell.
type PolicyRow struct {
	SetName   string
	Policy    cache.Policy
	SharedPct float64
}

// CachePolicyAblation compares the paper's direction+distance replacement
// policy with LRU on the kNN workload.
func CachePolicyAblation(o Options) []PolicyRow {
	o.applyDefaults()
	var rows []PolicyRow
	for _, base := range sim.ParameterSets() {
		for _, pol := range []cache.Policy{cache.DirectionDistance, cache.LRU} {
			stats := runCell(base, o, func(p *sim.Params) {
				p.Kind = sim.KNNQuery
				p.AcceptApproximate = true
				p.CachePolicy = pol
			})
			rows = append(rows, PolicyRow{
				SetName:   base.Name,
				Policy:    pol,
				SharedPct: stats.SharedPct(),
			})
		}
	}
	return rows
}

// ThresholdRow is one approximate-acceptance ablation cell.
type ThresholdRow struct {
	Threshold      float64
	ApproximatePct float64
	BroadcastPct   float64
}

// ApproxThresholdAblation sweeps the correctness-probability acceptance
// threshold (the paper fixes 50%) on the LA City kNN workload.
func ApproxThresholdAblation(o Options) []ThresholdRow {
	o.applyDefaults()
	var rows []ThresholdRow
	for _, th := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		stats := runCell(sim.LACity(), o, func(p *sim.Params) {
			p.Kind = sim.KNNQuery
			p.AcceptApproximate = true
			p.MinCorrectness = th
		})
		rows = append(rows, ThresholdRow{
			Threshold:      th,
			ApproximatePct: stats.ApproximatePct(),
			BroadcastPct:   stats.BroadcastPct(),
		})
	}
	return rows
}
