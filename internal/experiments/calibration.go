package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/sim"
)

// OrderingRow is one cell of the broadcast-ordering ablation.
type OrderingRow struct {
	Ordering broadcast.Ordering
	// CycleSlots is the broadcast cycle length.
	CycleSlots int64
	// MeanKNNPackets / MeanWindowPackets are the mean data packets an
	// on-air query must download under the ordering.
	MeanKNNPackets    float64
	MeanWindowPackets float64
	// MeanKNNLatency is the mean on-air kNN access latency in slots.
	MeanKNNLatency float64
}

// OrderingAblation compares Hilbert, Morton, and row-major broadcast
// orderings on the LA City database: the locality argument (Jagadish,
// cited in Section 2.1) for choosing the Hilbert curve.
func OrderingAblation(o Options) []OrderingRow {
	o.applyDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	base := sim.LACity()
	area := base.Area()
	pois := sim.GeneratePOIs(rng, base)
	winSide := base.WindowSideMiles()

	var rows []OrderingRow
	for _, ord := range []broadcast.Ordering{
		broadcast.OrderingHilbert, broadcast.OrderingMorton, broadcast.OrderingRowMajor,
	} {
		sched, err := broadcast.NewSchedule(pois, broadcast.Config{
			Area: area, Ordering: ord,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		probe := rand.New(rand.NewSource(o.Seed + 1))
		const trials = 200
		var knnPk, winPk, knnLat float64
		var sc broadcast.Scratch
		for i := 0; i < trials; i++ {
			q := geom.Pt(probe.Float64()*base.AreaMiles, probe.Float64()*base.AreaMiles)
			_, _, acc := sched.KNN(&sc, q, base.K, int64(i)*37, broadcast.Bounds{})
			knnPk += float64(acc.PacketsRead)
			knnLat += float64(acc.Latency)
			c := geom.Pt(probe.Float64()*(base.AreaMiles-winSide), probe.Float64()*(base.AreaMiles-winSide))
			w := geom.Rect{Min: c, Max: c.Add(geom.Pt(winSide, winSide))}
			_, _, _, wacc := sched.Window(&sc, []geom.Rect{w}, int64(i)*53)
			winPk += float64(wacc.PacketsRead)
		}
		rows = append(rows, OrderingRow{
			Ordering:          ord,
			CycleSlots:        sched.CycleLength(),
			MeanKNNPackets:    knnPk / trials,
			MeanWindowPackets: winPk / trials,
			MeanKNNLatency:    knnLat / trials,
		})
	}
	return rows
}

// WriteOrdering renders the ordering ablation table.
func WriteOrdering(w io.Writer, rows []OrderingRow) {
	fmt.Fprintf(w, "Ablation: broadcast cell ordering (LA City database, on-air queries)\n")
	fmt.Fprintf(w, "  %-10s %8s %12s %12s %14s\n",
		"ordering", "cycle", "kNN pkts", "window pkts", "kNN latency")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %8d %12.2f %12.2f %14.1f\n",
			r.Ordering, r.CycleSlots, r.MeanKNNPackets, r.MeanWindowPackets,
			r.MeanKNNLatency)
	}
}

// CalibrationBin is one bucket of the Lemma 3.2 calibration study:
// unverified candidates whose predicted correctness fell in
// [Lo, Hi) and how often they were actually correct.
type CalibrationBin struct {
	Lo, Hi float64
	// Count is the number of unverified candidates in the bucket.
	Count int
	// MeanPredicted is the average predicted correctness probability.
	MeanPredicted float64
	// Observed is the empirical fraction that truly held their rank.
	Observed float64
}

// CorrectnessCalibration validates Lemma 3.2 empirically: generate many
// NNV situations over a Poisson POI field, collect every unverified heap
// entry with its predicted correctness probability, check against ground
// truth whether the entry truly was the NN of its rank, and bucket by
// predicted probability. A calibrated model puts the observed frequency
// close to the predicted mean in every bucket.
//
// clustered switches the POI field from Poisson (the lemma's assumption)
// to a clustered Gaussian-mixture field, quantifying how miscalibrated
// the probabilities become when the assumption is violated.
func CorrectnessCalibration(o Options, clustered bool, trials int) []CalibrationBin {
	o.applyDefaults()
	if trials <= 0 {
		trials = 4000
	}
	rng := rand.New(rand.NewSource(o.Seed))
	const areaSide = 20.0
	const n = 600
	lambda := float64(n) / (areaSide * areaSide)
	field := sim.Params{POINumber: n, AreaMiles: areaSide}
	if clustered {
		field.POIClusters = 6 // POIs that huddle in commercial centres
	}

	edges := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0000001}
	sums := make([]float64, len(edges)-1)
	hits := make([]int, len(edges)-1)
	counts := make([]int, len(edges)-1)
	var s core.Scratch

	for trial := 0; trial < trials; trial++ {
		db := sim.GeneratePOIs(rng, field)
		// One random sound peer region plus a query point near it.
		cx, cy := rng.Float64()*(areaSide-6), rng.Float64()*(areaSide-6)
		vr := geom.NewRect(cx, cy, cx+2+rng.Float64()*4, cy+2+rng.Float64()*4)
		pd := core.PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		q := geom.Pt(
			vr.Min.X+rng.Float64()*vr.Width(),
			vr.Min.Y+rng.Float64()*vr.Height(),
		)
		k := 2 + rng.Intn(6)
		res := core.NNVScratch(&s, q, []core.PeerData{pd}, k, lambda)

		truth := append([]broadcast.POI(nil), db...)
		slices.SortFunc(truth, func(a, b broadcast.POI) int {
			return cmp.Compare(a.Pos.DistSq(q), b.Pos.DistSq(q))
		})
		for rank, e := range res.Heap.Entries() {
			if e.Verified {
				continue
			}
			correct := truth[rank].ID == e.POI.ID
			for b := 0; b+1 < len(edges); b++ {
				if e.Correctness >= edges[b] && e.Correctness < edges[b+1] {
					counts[b]++
					sums[b] += e.Correctness
					if correct {
						hits[b]++
					}
					break
				}
			}
		}
	}

	var out []CalibrationBin
	for b := 0; b+1 < len(edges); b++ {
		bin := CalibrationBin{Lo: edges[b], Hi: edges[b+1]}
		if bin.Hi > 1 {
			bin.Hi = 1
		}
		bin.Count = counts[b]
		if counts[b] > 0 {
			bin.MeanPredicted = sums[b] / float64(counts[b])
			bin.Observed = float64(hits[b]) / float64(counts[b])
		}
		out = append(out, bin)
	}
	return out
}

// HopRow is one cell of the multi-hop sharing extension study.
type HopRow struct {
	SetName   string
	Hops      int
	SharedPct float64
	AvgPeers  float64
}

// MultiHopAblation measures how relaying cache requests over additional
// ad-hoc hops raises the peer-resolution share — most valuable in the
// sparse Riverside County set, where single-hop neighborhoods are often
// empty.
func MultiHopAblation(o Options) []HopRow {
	o.applyDefaults()
	var rows []HopRow
	for _, base := range sim.ParameterSets() {
		for _, hops := range []int{1, 2, 3} {
			stats := runCell(base, o, func(p *sim.Params) {
				p.Kind = sim.KNNQuery
				p.AcceptApproximate = true
				p.SharingHops = hops
			})
			rows = append(rows, HopRow{
				SetName:   base.Name,
				Hops:      hops,
				SharedPct: stats.SharedPct(),
				AvgPeers:  stats.AvgPeers(),
			})
		}
	}
	return rows
}

// WriteMultiHop renders the multi-hop table.
func WriteMultiHop(w io.Writer, rows []HopRow) {
	fmt.Fprintf(w, "Extension: multi-hop sharing (kNN, shared-resolution %%)\n")
	fmt.Fprintf(w, "  %-20s %6s %10s %10s\n", "Parameter set", "hops", "shared %", "peers/q")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %6d %10.1f %10.1f\n", r.SetName, r.Hops, r.SharedPct, r.AvgPeers)
	}
}

// WriteCalibration renders the calibration table.
func WriteCalibration(w io.Writer, label string, bins []CalibrationBin) {
	fmt.Fprintf(w, "Lemma 3.2 calibration — %s POI field\n", label)
	fmt.Fprintf(w, "  %-14s %8s %12s %12s\n", "predicted bin", "count", "mean pred.", "observed")
	for _, b := range bins {
		if b.Count == 0 {
			fmt.Fprintf(w, "  [%.1f, %.1f)     %8d %12s %12s\n", b.Lo, b.Hi, 0, "—", "—")
			continue
		}
		fmt.Fprintf(w, "  [%.1f, %.1f)     %8d %12.3f %12.3f\n",
			b.Lo, b.Hi, b.Count, b.MeanPredicted, b.Observed)
	}
}
