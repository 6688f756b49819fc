package main

import (
	"fmt"
	"math"

	"lbsq/internal/faults"
	"lbsq/internal/sim"
)

// workload is one set of simulator inputs the benchmark runs. A run of a
// workload builds Replicas independent worlds (sub-seeds derived from the
// run seed), so one run's numbers pool several worlds: the count-valued
// layers (standing subscriptions, byzantine hosts, POI updates) are drawn
// a handful at a time, and a single world's cost swings 15–50 % with the
// seed (README "Sizing").
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// ZeroKnob marks the workloads that run the plain query path, the
	// only ones the layer replay can reproduce from exported calls.
	ZeroKnob bool
	// Replicas is the number of worlds one run pools at the reference
	// run length (refSeconds); sized so the timed windows add up to
	// about that long on the 2-core sizing box.
	Replicas int
	// Hours / QuickHours are the simulated horizons of a full and a
	// -quick world.
	Hours, QuickHours float64
	// build returns the world parameters at full size; quick swaps the
	// map side for a small one of the same densities.
	build func(side float64) sim.Params
	// Side / QuickSide are the map sides in miles (densities are
	// preserved by Params.Scaled).
	Side, QuickSide float64
}

// refSeconds is the run length the Replicas counts are sized for
// (BENCHMARK.json run_seconds).
const refSeconds = 10

// workloads is the registry; order is the round-robin order of a set.
var workloads = []workload{
	{
		Name: "knn_dense", ZeroKnob: true, Replicas: 4,
		Why:   "dense urban kNN sharing with full caches: a query merges ~80 peer rectangles, so geom+core dominate",
		Hours: 0.45, QuickHours: 0.05, Side: 5, QuickSide: 1.5,
		build: func(side float64) sim.Params {
			p := sim.LACity().Scaled(side)
			p.AcceptApproximate = true
			p.PrefillQueriesPerHost = 10
			return p
		},
	},
	{
		Name: "window_dense", ZeroKnob: true, Replicas: 3,
		Why:   "dense window queries over 45k moving hosts: mobility+p2p and the on-air client dominate, geom is minor",
		Hours: 0.9, QuickHours: 0.05, Side: 14, QuickSide: 2,
		build: func(side float64) sim.Params {
			p := sim.LACity().Scaled(side)
			p.Kind = sim.WindowQuery
			p.PrefillQueriesPerHost = 10
			return p
		},
	},
	{
		Name: "knn_sparse", ZeroKnob: true, Replicas: 3,
		Why:   "rural kNN at full 20 mi scale: three quarters of queries fall to the channel, so broadcast dominates and geom is bypassed",
		Hours: 2, QuickHours: 0.2, Side: 20, QuickSide: 6,
		build: func(side float64) sim.Params {
			p := sim.RiversideCounty().Scaled(side)
			p.AcceptApproximate = true
			p.PrefillQueriesPerHost = 10
			return p
		},
	},
	{
		Name: "knn_armed", Replicas: 16,
		Why:   "every shell layer armed (loss, corruption, churn, deadline, breakers, IR reconcile, standing queries, audits): write-side and fault paths beside the read path",
		Hours: 0.2, QuickHours: 0.05, Side: 4, QuickSide: 1.5,
		build: func(side float64) sim.Params {
			p := sim.LACity().Scaled(side)
			p.AcceptApproximate = true
			p.PrefillQueriesPerHost = armedPrefill
			p.Faults = faults.Profile{RequestLoss: 0.1, ReplyLoss: 0.1,
				ReplyCorrupt: 0.05, MaxRetries: 4, ChurnRate: 0.1}
			p.DeadlineSlots = 16
			p.BreakerThreshold = 3
			p.BreakerCooldown = 8
			p.DegradedMode = true
			p.UpdateRate = 1
			p.UseOwnCache = true
			p.ContinuousRate = 0.5
			p.AuditRate = 0.1
			return p
		},
	},
	{
		Name: "knn_byzantine", Replicas: 9,
		Why:   "2% byzantine hosts on an otherwise ideal substrate: trust.Screen dominates and is absent from the other four",
		Hours: 0.2, QuickHours: 0.05, Side: 4, QuickSide: 1.5,
		build: func(side float64) sim.Params {
			p := sim.LACity().Scaled(side)
			p.AcceptApproximate = true
			p.PrefillQueriesPerHost = armedPrefill
			p.AuditRate = 0.1
			p.Faults.ByzantineRate = 0.02
			p.BreakerThreshold = 3
			return p
		},
	},
}

// armedPrefill is the cache warm start of the two armed workloads. With
// the trust screen armed a query costs O(n²) in the verified regions it
// gathers; at the prefill of 10 the dense workloads use, one query costs
// ~7 ms and a run affords ~700 of them, too few for any simulated metric
// to hold still across seeds. At 3 the same wall time buys 16× the
// queries on 4× the area (README "Sizing").
const armedPrefill = 3

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// replicas returns how many worlds a run of the given length pools. It
// depends on the inputs alone, never on how fast the box is, so the
// simulated statistics of (workload, seed, seconds) repeat exactly.
func (wl workload) replicas(seconds int, quick bool) int {
	if quick {
		return 1
	}
	n := int(math.Round(float64(wl.Replicas) * float64(seconds) / refSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// params generates the inputs of replica r of a run: everything the
// simulator receives. The run seed is the only thing that varies.
func (wl workload) params(seed int64, r int, quick bool) sim.Params {
	side, hours := wl.Side, wl.Hours
	if quick {
		side, hours = wl.QuickSide, wl.QuickHours
	}
	p := wl.build(side).WithDuration(hours)
	p.Seed = replicaSeed(seed, r)
	return p
}

// replicaSeed spreads the replicas of one run seed over the 63-bit seed
// space (splitmix64 step), so runs with neighbouring seeds share no world.
func replicaSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
