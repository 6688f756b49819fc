package broadcast

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func TestOrderingStrings(t *testing.T) {
	if OrderingHilbert.String() != "hilbert" ||
		OrderingMorton.String() != "morton" ||
		OrderingRowMajor.String() != "row-major" {
		t.Error("Ordering labels wrong")
	}
	if Ordering(99).String() != "hilbert" {
		t.Error("unknown ordering must default to hilbert label")
	}
}

// TestAllOrderingsAnswerCorrectly: query results are identical across
// orderings — the broadcast order only changes cost, never correctness.
func TestAllOrderingsAnswerCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pois := randomPOIs(rng, 300, 64)
	for _, ord := range []Ordering{OrderingHilbert, OrderingMorton, OrderingRowMajor} {
		cfg := testConfig()
		cfg.Ordering = ord
		s := mustSchedule(t, pois, cfg)
		for trial := 0; trial < 20; trial++ {
			q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
			k := 1 + rng.Intn(6)
			got, _ := plainKNN(s, q, k, int64(trial))
			want := bruteKNN(pois, q, k)
			ids := map[int64]bool{}
			for _, p := range got {
				ids[p.ID] = true
			}
			for _, w := range want {
				if !ids[w.ID] {
					t.Fatalf("%v: true NN %d missing", ord, w.ID)
				}
			}
			cx, cy := rng.Float64()*56, rng.Float64()*56
			win := geom.NewRect(cx, cy, cx+6, cy+6)
			gw, _ := plainWindow(s, win, int64(trial))
			count := 0
			for _, p := range pois {
				if win.Contains(p.Pos) {
					count++
				}
			}
			if len(gw) != count {
				t.Fatalf("%v: window %d want %d", ord, len(gw), count)
			}
		}
	}
}

// TestOrderingCellGranularityPreserved: the no-cell-split invariant holds
// for every ordering (GrowCompleteRect depends on it).
func TestOrderingCellGranularityPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pois := randomPOIs(rng, 400, 64)
	for _, ord := range []Ordering{OrderingMorton, OrderingRowMajor} {
		cfg := testConfig()
		cfg.Ordering = ord
		s := mustSchedule(t, pois, cfg)
		owner := map[[2]int]int{}
		for _, p := range s.Packets() {
			for _, poi := range p.POIs {
				cx, cy := s.Curve().CellOf(poi.Pos)
				if prev, ok := owner[[2]int{cx, cy}]; ok && prev != p.Seq {
					t.Fatalf("%v: cell (%d,%d) split", ord, cx, cy)
				}
				owner[[2]int{cx, cy}] = p.Seq
			}
		}
	}
}

// TestHilbertLocalityBeatsRowMajor: the mean number of packets a window
// query touches is lower under Hilbert ordering than row-major — the
// locality property that motivated the curve choice (Jagadish, cited by
// the paper). Packets touched translates directly into tuning time.
func TestHilbertLocalityBeatsRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pois := randomPOIs(rng, 600, 64)
	mean := func(ord Ordering) float64 {
		cfg := testConfig()
		cfg.Ordering = ord
		s := mustSchedule(t, pois, cfg)
		probe := rand.New(rand.NewSource(7))
		total := 0
		const trials = 120
		for i := 0; i < trials; i++ {
			cx, cy := probe.Float64()*52, probe.Float64()*52
			win := geom.NewRect(cx, cy, cx+12, cy+12)
			_, acc := plainWindow(s, win, int64(i))
			total += acc.PacketsRead
		}
		return float64(total) / trials
	}
	hil := mean(OrderingHilbert)
	row := mean(OrderingRowMajor)
	if hil > row {
		t.Errorf("Hilbert mean packets %v above row-major %v", hil, row)
	}
}
