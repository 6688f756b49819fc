package experiments

import (
	"fmt"
	"time"

	"lbsq/internal/sim"
	"lbsq/internal/sweep"
)

// FaultCell is one cell of the fault/resilience benchmark grid: a
// symmetric request/reply loss rate, with or without the lifecycle
// knobs (a larger retry budget, churn, a deadline, breakers), and
// optionally with the dynamic-POI consistency layer (UpdateRate > 0
// arms it; Discard replaces surgical reconciliation with whole-region
// discard — the ablation the churn rows compare).
type FaultCell struct {
	Loss       float64
	Resilient  bool
	UpdateRate float64
	Discard    bool
	// Burst arms the Gilbert–Elliott fading chain (deep-fade bad state
	// over the Bernoulli loss floor); Blackout the per-MH downlink
	// outage schedule; Degraded the fallback-ladder planner. The three
	// channel cells append after the churn rows.
	Burst    bool
	Blackout bool
	Degraded bool
	// Crowd arms the flash-crowd workload generator (a 10× hotspot burst
	// over the legacy rate); Governed additionally arms the full
	// overload-control stack (peer backpressure, retry budget, admission
	// buckets, load governor, coalescing). The two crowd cells append
	// after the channel rows — the uncontrolled/governed pair the
	// EXPERIMENTS.md goodput curve summarizes.
	Crowd    bool
	Governed bool
}

// FaultGrid returns the standard grid `make bench` sweeps: loss rates
// {0, 0.05, 0.1, 0.2}, first loss-only (default retry budget, no
// deadline, breakers or churn), then with all of them, then the two
// POI-churn cells (surgical reconciliation vs whole-discard at the same
// churn and loss), then the three channel-impairment cells (burst fading naive
// and planned, blackout planned), then the two flash-crowd cells
// (uncontrolled vs governed at the same hotspot load). New cells append
// — never reorder — so a BENCH_faults.json row keeps its line number
// (TestFaultGridCellOrder).
func FaultGrid() []FaultCell {
	rates := []float64{0, 0.05, 0.1, 0.2}
	cells := make([]FaultCell, 0, 2*len(rates)+7)
	for _, p := range rates {
		cells = append(cells, FaultCell{Loss: p})
	}
	for _, p := range rates {
		cells = append(cells, FaultCell{Loss: p, Resilient: true})
	}
	cells = append(cells,
		FaultCell{Loss: 0.1, Resilient: true, UpdateRate: 2},
		FaultCell{Loss: 0.1, Resilient: true, UpdateRate: 2, Discard: true})
	// Channel-impairment rows: burst fading over the resilient stack
	// without and with the fallback-ladder planner, and a blackout
	// schedule with the planner — the availability cells the
	// EXPERIMENTS.md curve summarizes.
	cells = append(cells,
		FaultCell{Loss: 0.1, Resilient: true, Burst: true},
		FaultCell{Loss: 0.1, Resilient: true, Burst: true, Degraded: true},
		FaultCell{Resilient: true, Blackout: true, Degraded: true})
	// Flash-crowd rows: the same hotspot burst over the resilient stack,
	// first uncontrolled (the metastability baseline), then with the full
	// overload-control stack.
	cells = append(cells,
		FaultCell{Loss: 0.1, Resilient: true, Crowd: true},
		FaultCell{Loss: 0.1, Resilient: true, Crowd: true, Governed: true})
	return cells
}

// Params resolves a cell into full simulation parameters: the LA set at
// the given scale (the historical grid ran -side 2 -hours 0.1), with the
// step, seed and warm start of the default Options.
func (c FaultCell) Params(side, hours float64) sim.Params {
	o := Options{SideMiles: side, DurationHours: hours}
	o.applyDefaults()
	p := o.cell(sim.LACity())
	p.AcceptApproximate = true
	p.Faults.RequestLoss = c.Loss
	p.Faults.ReplyLoss = c.Loss
	if c.Resilient {
		p.Faults.MaxRetries = 4
		p.Faults.ChurnRate = 0.1
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
		p.BreakerCooldown = 8
	}
	if c.UpdateRate > 0 {
		p.UpdateRate = c.UpdateRate
		p.IRPeriodSec = 30
		p.IRWindow = 8
		p.IRDiscard = c.Discard
		p.UseOwnCache = true // churn rows exercise the own-cache reconcile path too
	}
	if c.Burst {
		// Deep fades (total loss in the bad state) holding ~25% of slots,
		// dwells long enough to span whole collection rounds.
		p.Faults.BurstBadLoss = 1
		p.Faults.BurstBadSlots = 400
		p.Faults.BurstGoodSlots = 1200
	}
	if c.Blackout {
		// Per-MH downlink outages at a 1/3 duty cycle.
		p.Faults.BlackoutPeriodSec = 60
		p.Faults.BlackoutDurationSec = 20
	}
	p.DegradedMode = c.Degraded
	if c.Crowd {
		// A 10× hotspot burst over the legacy offered load, with the
		// default geometry (area-center disk, mid-run window).
		p.CrowdRate = p.QueryRate * 10
	}
	if c.Governed {
		// The full overload-control stack at levels sized for the grid
		// scale: small per-peer service queues, a bounded per-tick retry
		// pool, sub-query-rate admission refill, the load governor at a
		// 0.9 floor, and quarter-mile coalescing.
		p.PeerQueueCap = 2
		p.RetryBudget = 8
		p.AdmissionRate = 0.05
		p.GovernorFloor = 0.9
		p.CoalesceRadiusMiles = 0.25
	}
	return p
}

// RunFaultGrid runs every grid cell through the sweep engine with the
// ground-truth self-check enabled and returns one Report per cell, in
// grid order. Every worker count produces identical rows apart from the
// nondeterministic wall_seconds field (each cell owns its seeded
// world). A self-check failure in any cell is returned as an error.
func RunFaultGrid(workers int, side, hours float64) ([]sim.Report, error) {
	type cellOut struct {
		rep sim.Report
		err error
	}
	outs := sweep.Map(workers, FaultGrid(), func(_ int, c FaultCell) cellOut {
		p := c.Params(side, hours)
		w, err := sim.NewWorld(p)
		if err != nil {
			return cellOut{err: fmt.Errorf("experiments: fault grid cell %+v: %w", c, err)}
		}
		w.SelfCheck = true
		start := time.Now()
		stats := w.Run()
		elapsed := time.Since(start).Seconds()
		if err := w.SelfCheckErr(); err != nil {
			return cellOut{err: fmt.Errorf("experiments: fault grid cell %+v self-check: %w", c, err)}
		}
		return cellOut{rep: sim.NewReport(p, stats, true, elapsed)}
	})
	reports := make([]sim.Report, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		reports = append(reports, o.rep)
	}
	return reports, nil
}
