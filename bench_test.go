// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each figure benchmark reruns the corresponding experiment
// sweep at the reduced Fast scale (density-preserving 3-mile area) and
// logs the regenerated series; cmd/lbsq-figures prints the same tables at
// any scale up to the paper's full configuration. Micro-benchmarks for
// the individual algorithms live next to their packages.
//
// Run with:
//
//	go test -bench=. -benchmem
package lbsq_test

import (
	"math/rand"
	"strings"
	"testing"

	"lbsq"
	"lbsq/internal/broadcast"
	"lbsq/internal/experiments"
	"lbsq/internal/sim"
)

// logFigure renders a regenerated figure into the benchmark log.
func logFigure(b *testing.B, f experiments.Figure) {
	b.Helper()
	var sb strings.Builder
	if _, err := f.WriteTo(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
}

// BenchmarkTable3ParameterSets measures construction of the full system
// model for each Table 3 parameter set (scaled) and logs the table.
func BenchmarkTable3ParameterSets(b *testing.B) {
	sets := sim.ParameterSets()
	b.Logf("\nTable 3 — simulation parameter sets")
	b.Logf("%-20s %8s %8s %6s %8s %6s %4s %7s %9s %6s",
		"set", "POIs", "MHs", "CSize", "Query/m", "Tx m", "k", "win %", "dist mi", "T h")
	for _, p := range sets {
		b.Logf("%-20s %8d %8d %6d %8.0f %6.0f %4d %7.0f %9.0f %6.0f",
			p.Name, p.POINumber, p.MHNumber, p.CacheSize, p.QueryRate,
			p.TxRangeMeters, p.K, p.WindowPct, p.WindowDistMiles, p.DurationHours)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sets {
			s := p.Scaled(2).WithDuration(0.1)
			s.Seed = int64(i + 1)
			if _, err := sim.NewWorld(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFigure runs a figure regeneration per iteration and logs it once.
func benchFigure(b *testing.B, gen func(experiments.Options) experiments.Figure) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		f := gen(opt)
		if i == 0 {
			logFigure(b, f)
		}
	}
}

// BenchmarkFig10TransmissionRangeKNN regenerates Figure 10: kNN
// resolution shares vs. wireless transmission range, all three parameter
// sets.
func BenchmarkFig10TransmissionRangeKNN(b *testing.B) {
	benchFigure(b, experiments.Fig10)
}

// BenchmarkFig11CacheCapacityKNN regenerates Figure 11: kNN resolution
// shares vs. mobile host cache capacity.
func BenchmarkFig11CacheCapacityKNN(b *testing.B) {
	benchFigure(b, experiments.Fig11)
}

// BenchmarkFig12NearestNeighborK regenerates Figure 12: kNN resolution
// shares vs. the requested k.
func BenchmarkFig12NearestNeighborK(b *testing.B) {
	benchFigure(b, experiments.Fig12)
}

// BenchmarkFig13TransmissionRangeWindow regenerates Figure 13: window
// query resolution shares vs. transmission range.
func BenchmarkFig13TransmissionRangeWindow(b *testing.B) {
	benchFigure(b, experiments.Fig13)
}

// BenchmarkFig14CacheCapacityWindow regenerates Figure 14: window query
// resolution shares vs. cache capacity.
func BenchmarkFig14CacheCapacityWindow(b *testing.B) {
	benchFigure(b, experiments.Fig14)
}

// BenchmarkFig15WindowSize regenerates Figure 15: window query resolution
// shares vs. query window size.
func BenchmarkFig15WindowSize(b *testing.B) {
	benchFigure(b, experiments.Fig15)
}

// BenchmarkLatencyReduction regenerates the access-latency headline of
// Sections 3.3.3/5: mean latency and channel accesses with sharing
// versus the plain on-air algorithms.
func BenchmarkLatencyReduction(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.LatencyReduction(opt)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteLatency(&sb, rows)
			b.Logf("\n%s", sb.String())
		}
	}
}

// BenchmarkHitRatioAnalysis regenerates the probabilistic hit-ratio
// analysis (contribution (d)) against simulation.
func BenchmarkHitRatioAnalysis(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.AnalysisVsSim(opt)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteAnalysis(&sb, rows)
			b.Logf("\n%s", sb.String())
		}
	}
}

// BenchmarkAblationCachePolicy compares the paper's direction+distance
// cache replacement with LRU (design choice called out in DESIGN.md).
func BenchmarkAblationCachePolicy(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.CachePolicyAblation(opt)
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-20s %-20s shared %.1f%%", r.SetName, r.Policy, r.SharedPct)
			}
		}
	}
}

// BenchmarkAblationApproxThreshold sweeps the approximate-answer
// acceptance threshold around the paper's 50% setting.
func BenchmarkAblationApproxThreshold(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.ApproxThresholdAblation(opt)
		if i == 0 {
			for _, r := range rows {
				b.Logf("threshold %.2f: approx %.1f%%, broadcast %.1f%%",
					r.Threshold, r.ApproximatePct, r.BroadcastPct)
			}
		}
	}
}

// BenchmarkAblationIndexM sweeps the (1, m) index replication factor: a
// larger m shortens the initial probe at the cost of a longer cycle
// (Figure 2 trade-off).
func BenchmarkAblationIndexM(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	area := lbsq.NewRect(0, 0, 20, 20)
	pois := make([]lbsq.POI, 2750) // LA City POI count
	for i := range pois {
		pois[i] = lbsq.POI{ID: int64(i), Pos: lbsq.Pt(rng.Float64()*20, rng.Float64()*20)}
	}
	for _, m := range []int{1, 2, 4, 8, 16} {
		srv, err := lbsq.NewServer(area, pois, lbsq.BroadcastConfig{M: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("m=%2d: cycle %4d slots", m, srv.Schedule().CycleLength())
	}
	srv, err := lbsq.NewServer(area, pois, lbsq.BroadcastConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var sc broadcast.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := lbsq.Pt(rng.Float64()*20, rng.Float64()*20)
		srv.Schedule().KNN(&sc, q, 5, int64(i), broadcast.Bounds{})
	}
}

// BenchmarkEndToEndSharedQuery measures one fully peer-resolved SBNN
// query — the zero-latency path the whole design optimizes for.
func BenchmarkEndToEndSharedQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	area := lbsq.NewRect(0, 0, 20, 20)
	pois := make([]lbsq.POI, 1000)
	for i := range pois {
		pois[i] = lbsq.POI{ID: int64(i), Pos: lbsq.Pt(rng.Float64()*20, rng.Float64()*20)}
	}
	srv, err := lbsq.NewServer(area, pois, lbsq.BroadcastConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var peers []lbsq.PeerData
	for i := 0; i < 8; i++ {
		c := lbsq.NewClient(srv, lbsq.Pt(10+rng.Float64(), 10+rng.Float64()), 80)
		c.KNN(8, nil)
		peers = append(peers, c.Share()...)
	}
	q := lbsq.NewClient(srv, lbsq.Pt(10.5, 10.5), 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := q.KNN(3, peers)
		if len(res.POIs) != 3 {
			b.Fatal("wrong result size")
		}
	}
}

// BenchmarkAblationBroadcastOrdering compares Hilbert, Morton, and
// row-major broadcast orderings — the locality argument for the Hilbert
// curve (Section 2.1 via Jagadish).
func BenchmarkAblationBroadcastOrdering(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.OrderingAblation(opt)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteOrdering(&sb, rows)
			b.Logf("\n%s", sb.String())
		}
	}
}

// BenchmarkLemma32Calibration validates the correctness-probability model
// empirically: predicted vs observed correctness of unverified
// candidates, under the lemma's Poisson assumption and under a clustered
// POI field that violates it.
func BenchmarkLemma32Calibration(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		poisson := experiments.CorrectnessCalibration(opt, false, 2000)
		clustered := experiments.CorrectnessCalibration(opt, true, 2000)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteCalibration(&sb, "Poisson", poisson)
			experiments.WriteCalibration(&sb, "clustered", clustered)
			b.Logf("\n%s", sb.String())
		}
	}
}

// BenchmarkExtensionMultiHopSharing measures the multi-hop sharing
// extension: relaying cache requests across 1, 2, and 3 ad-hoc hops.
func BenchmarkExtensionMultiHopSharing(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.MultiHopAblation(opt)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteMultiHop(&sb, rows)
			b.Logf("\n%s", sb.String())
		}
	}
}

// BenchmarkResultLifetime quantifies the Section 1 motivation: how far a
// moving client travels before one broadcast retrieval's verified
// knowledge stops answering fresh k-NN queries.
func BenchmarkResultLifetime(b *testing.B) {
	opt := experiments.Fast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		rows := experiments.ResultLifetime(opt)
		if i == 0 {
			var sb strings.Builder
			experiments.WriteLifetime(&sb, rows)
			b.Logf("\n%s", sb.String())
		}
	}
}
