package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/geom"
)

// inVR reports whether every POI of pd lies in its VR: the promise a
// Bounded row makes.
func inVR(pd *PeerData) bool {
	for _, p := range pd.POIs {
		if !pd.VR.Contains(p.Pos) {
			return false
		}
	}
	return true
}

// markBounded flags, at random, the rows of peers that keep the promise;
// every other row is left unbounded.
func markBounded(rng *rand.Rand, peers []PeerData) {
	for i := range peers {
		peers[i].Bounded = rng.Intn(4) != 0 && inVR(&peers[i])
	}
}

// boundedDiff runs every kernel that scans rows for candidates over peers
// and over plain — the same rows with other Bounded flags — and describes
// the first output that differs, or returns "": selectNearest's trusted
// pool and its tainted one (through a mask), Reach from the untainted rows
// and from every row, ReachCut at each reach, and Lists at every squared
// distance the case holds (each POI's and each region's from q), at the
// reaches and at +Inf and NaN.
func boundedDiff(s *Scratch, q geom.Point, peers, plain []PeerData, k int) string {
	taint := make([]bool, len(peers))
	every := make([]bool, len(peers))
	for i := range peers {
		taint[i], every[i] = peers[i].Tainted, true
	}
	d2s := []float64{math.Inf(1), math.NaN()}
	for i, use := range [2][]bool{nil, taint} {
		got := selectNearest(s, nil, q, peers, use, k)
		want := selectNearest(s, nil, q, plain, use, k)
		if !samePOIs(got, want) {
			return fmt.Sprintf("selectNearest (pool %d) %v, want %v", i, got, want)
		}
	}
	for i, use := range [2][]bool{nil, every} {
		d2, ok := Reach(s, q, peers, use, k)
		wd2, wok := Reach(s, q, plain, use, k)
		if ok != wok || math.Float64bits(d2) != math.Float64bits(wd2) {
			return fmt.Sprintf("Reach (mask %d) %v, %v, want %v, %v", i, d2, ok, wd2, wok)
		}
		if !ok {
			continue
		}
		if got, want := ReachCut(nil, q, peers, d2), ReachCut(nil, q, plain, d2); !slices.Equal(got, want) {
			return fmt.Sprintf("ReachCut at %v keeps %v, want %v", d2, got, want)
		}
		d2s = append(d2s, d2)
	}
	for i := range peers {
		d2s = append(d2s, peers[i].VR.DistSq(q))
		for _, p := range peers[i].POIs {
			d2s = append(d2s, p.Pos.DistSq(q))
		}
	}
	for i := range peers {
		for _, d2 := range d2s {
			if got, want := peers[i].Lists(q, d2), plain[i].Lists(q, d2); got != want {
				return fmt.Sprintf("row %d Lists at %v: %v, want %v", i, d2, got, want)
			}
		}
	}
	return ""
}

// TestBoundedRowsMatchFullScan holds the Bounded skip exact: over grid
// cases (ties, zero-area regions, tainted rows, lies about a POI's
// position, POIs an ulp outside their region, squared distances near
// underflow and overflow, k past the pool), with the rows that keep the
// promise flagged at random, every scan gives what it gives with every
// flag cleared. Flagging a lying row instead must change some output:
// the test can see a wrong flag.
func TestBoundedRowsMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var s Scratch
	caught, bounded := 0, 0
	for i := 0; i < 3000; i++ {
		q, peers, k := gridCase(rng)
		q = roughen(rng, q, peers)
		if rng.Intn(4) == 0 {
			k += rng.Intn(40)
		}
		markBounded(rng, peers)
		plain := slices.Clone(peers)
		liar := -1
		for j := range plain {
			if plain[j].Bounded {
				bounded++
			}
			plain[j].Bounded = false
			if !inVR(&plain[j]) {
				liar = j
			}
		}
		if d := boundedDiff(&s, q, peers, plain, k); d != "" {
			t.Fatalf("case %d (q=%v k=%d): %s\n peers: %+v", i, q, k, d, peers)
		}
		if liar >= 0 {
			wrong := slices.Clone(peers)
			wrong[liar].Bounded = true
			if boundedDiff(&s, q, wrong, plain, k) != "" {
				caught++
			}
		}
	}
	if bounded == 0 || caught == 0 {
		t.Fatalf("%d rows flagged, %d wrong flags seen: the test cannot see a wrong flag", bounded, caught)
	}
	t.Logf("%d rows flagged; a lying row flagged changed the output in %d cases", bounded, caught)
}
