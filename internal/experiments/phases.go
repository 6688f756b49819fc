package experiments

import (
	"fmt"
	"io"
	"slices"

	"lbsq/internal/sim"
	"lbsq/internal/sweep"
)

// PhaseRow is one (parameter set, phase) cell of the per-phase latency
// breakdown: the distribution of one query phase's cost over every
// counted query of a metrics-enabled run. Channel phases are measured in
// broadcast slots, CPU phases in deterministic work units (regions
// merged, candidates examined) — see sim.PhaseHistograms.
type PhaseRow struct {
	SetName string
	Phase   string
	Unit    string
	Count   uint64
	Mean    float64
	P50     float64
	P90     float64
	P99     float64
	Max     float64
}

// PhaseBreakdown runs one metrics-enabled kNN cell per Table 3 parameter
// set and extracts the per-phase span distributions from the final
// registry snapshot. Cells run through the sweep engine (bit-identical
// for every worker count); within a cell, observation draws no
// randomness, so the trajectory matches a metrics-off run of the same
// seed exactly.
func PhaseBreakdown(o Options) []PhaseRow {
	o.applyDefaults()
	sets := sim.ParameterSets()
	phases := sim.PhaseHistograms()
	rows := sweep.Map(o.workers, sets, func(_ int, base sim.Params) []PhaseRow {
		p := o.cell(base)
		p.Kind = sim.KNNQuery
		p.AcceptApproximate = true
		p.Metrics = true
		w := mustWorld(p)
		w.Run()
		snap := w.Metrics().Snapshot()
		var out []PhaseRow
		for _, ph := range phases {
			if h, ok := snap.Histogram(ph.Metric()); ok {
				out = append(out, PhaseRow{SetName: base.Name, Phase: ph.Name, Unit: ph.Unit,
					Count: h.Count, Mean: h.Mean, P50: h.P50, P90: h.P90, P99: h.P99, Max: h.Max})
			}
		}
		return out
	})
	return slices.Concat(rows...)
}

// WritePhases prints the per-phase breakdown as an aligned text table
// (the EXPERIMENTS.md latency-breakdown table).
func WritePhases(w io.Writer, rows []PhaseRow) {
	fmt.Fprintln(w, "Per-phase query cost breakdown (kNN, per counted query)")
	fmt.Fprintf(w, "  %-20s %-16s %-6s %8s %10s %8s %8s %8s %8s\n",
		"Parameter set", "phase", "unit", "count", "mean", "p50", "p90", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %-16s %-6s %8d %10.2f %8.0f %8.0f %8.0f %8.0f\n",
			r.SetName, r.Phase, r.Unit, r.Count, r.Mean, r.P50, r.P90, r.P99, r.Max)
	}
}
