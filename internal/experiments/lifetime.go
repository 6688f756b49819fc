package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/sim"
)

// LifetimeRow reports how far a moving client can travel before the
// verified knowledge gained from one kNN retrieval stops verifying a
// fresh k-NN query at its new position.
type LifetimeRow struct {
	SetName string
	K       int
	// MeanMiles is the mean travel distance until verification fails.
	MeanMiles float64
	// MeanSeconds converts it to time at the given speed.
	MeanSeconds float64
	// SpeedMph is the assumed travel speed.
	SpeedMph float64
}

// ResultLifetime measures the "query promptness and accuracy" motivation
// of Section 1 quantitatively: a client performs one on-air kNN
// retrieval, caches the verified region, then drives in a straight line
// re-querying against its own cache until Lemma 3.1 can no longer verify
// all k answers. The distance at which that happens is how long one
// broadcast access keeps paying off — and how often a moving client must
// refresh.
func ResultLifetime(o Options) []LifetimeRow {
	o.applyDefaults()
	const speedMph = 30.0
	const step = 0.02 // miles per probe
	var rows []LifetimeRow
	var s core.Scratch
	for _, base := range sim.ParameterSets() {
		rng := rand.New(rand.NewSource(o.Seed))
		pois := sim.GeneratePOIs(rng, base)
		sched, err := broadcast.NewSchedule(pois, broadcast.Config{Area: base.Area()})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		lambda := base.POIDensity()
		for _, k := range []int{1, 5, 10} {
			const trials = 60
			total := 0.0
			for trial := 0; trial < trials; trial++ {
				// Start well inside the area so straight drives stay in it.
				q := geom.Pt(
					base.AreaMiles/4+rng.Float64()*base.AreaMiles/2,
					base.AreaMiles/4+rng.Float64()*base.AreaMiles/2,
				)
				res := core.SBNNScratch(&s, q, nil, core.SBNNConfig{K: k, Lambda: lambda},
					sched, int64(trial)*101)
				if res.KnownRegion.Empty() {
					continue
				}
				// Known lives in s until the next SBNN or SBWQ call: the
				// NNV drive below does not write it.
				own := []core.PeerData{{VR: res.KnownRegion, POIs: res.Known}}
				angle := rng.Float64() * 2 * math.Pi
				dir := geom.Pt(math.Cos(angle), math.Sin(angle))
				dist := 0.0
				pos := q
				for {
					pos = pos.Add(dir.Scale(step))
					dist += step
					nnv := core.NNVScratch(&s, pos, own, k, lambda)
					if nnv.Heap.VerifiedCount() < k {
						break
					}
					if dist > base.AreaMiles {
						break // safety bound
					}
				}
				total += dist
			}
			mean := total / 60
			rows = append(rows, LifetimeRow{
				SetName:     base.Name,
				K:           k,
				MeanMiles:   mean,
				MeanSeconds: mean / speedMph * 3600,
				SpeedMph:    speedMph,
			})
		}
	}
	return rows
}

// WriteLifetime renders the result-lifetime table.
func WriteLifetime(w io.Writer, rows []LifetimeRow) {
	fmt.Fprintf(w, "Result lifetime: travel distance until one retrieval's verified knowledge expires\n")
	fmt.Fprintf(w, "  %-20s %4s %12s %14s\n", "Parameter set", "k", "mean miles", "mean seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %4d %12.3f %14.1f\n", r.SetName, r.K, r.MeanMiles, r.MeanSeconds)
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "  (at %.0f mph)\n", rows[0].SpeedMph)
	}
}
