package analysis

import (
	"math"
	"testing"
)

func laModel() Model {
	return Model{
		MHDensity:     233.25, // 93300 / 400
		POIDensity:    6.875,  // 2750 / 400
		TxRangeMiles:  200 / 1609.344,
		CacheSize:     50,
		LocalityMiles: 2,
	}
}

func TestExpectedPeersLA(t *testing.T) {
	m := laModel()
	// 233.25 vehicles/sq mi in a 200m (0.124 mi) disk: ~11.3 peers.
	got := m.ExpectedPeers()
	if got < 10 || got > 13 {
		t.Errorf("ExpectedPeers = %v, want ~11", got)
	}
}

func TestKNNRadius(t *testing.T) {
	m := laModel()
	// r_5 = sqrt(5/(pi*6.875)) ~= 0.481 mi.
	got := m.KNNRadius(5)
	if math.Abs(got-0.481) > 0.01 {
		t.Errorf("KNNRadius(5) = %v", got)
	}
	if m.KNNRadius(0) != m.KNNRadius(1) {
		t.Error("k<1 must clamp to 1")
	}
	// Monotone in k.
	if m.KNNRadius(10) <= m.KNNRadius(5) {
		t.Error("radius must grow with k")
	}
}

func TestPeerCoverageAreaCap(t *testing.T) {
	m := laModel()
	want := 50 / 6.875
	if math.Abs(m.PeerCoverageArea()-want) > 1e-9 {
		t.Errorf("coverage area = %v want %v", m.PeerCoverageArea(), want)
	}
	// Tiny locality caps the area.
	m.LocalityMiles = 0.1
	if m.PeerCoverageArea() > math.Pi*0.01+1e-12 {
		t.Errorf("coverage not capped: %v", m.PeerCoverageArea())
	}
}

func TestHitRatioMonotoneInRange(t *testing.T) {
	m := laModel()
	prev := -1.0
	for _, tx := range []float64{0.01, 0.05, 0.1, 0.15, 0.2} {
		m.TxRangeMiles = tx
		h := m.KNNHitRatio(5)
		if h < prev {
			t.Fatalf("hit ratio decreased with range at %v", tx)
		}
		if h < 0 || h > 1 {
			t.Fatalf("hit ratio %v out of [0,1]", h)
		}
		prev = h
	}
}

func TestHitRatioMonotoneInCache(t *testing.T) {
	m := laModel()
	prev := -1.0
	for _, c := range []int{6, 12, 18, 24, 30} {
		m.CacheSize = c
		h := m.KNNHitRatio(5)
		if h < prev {
			t.Fatalf("hit ratio decreased with cache %d", c)
		}
		prev = h
	}
}

func TestHitRatioDecreasesWithK(t *testing.T) {
	m := laModel()
	prev := 2.0
	for _, k := range []int{3, 6, 9, 12, 15} {
		h := m.KNNHitRatio(k)
		if h > prev {
			t.Fatalf("hit ratio increased with k=%d", k)
		}
		prev = h
	}
}

func TestUpperBoundByPeerPresence(t *testing.T) {
	m := laModel()
	for _, k := range []int{1, 5, 15} {
		if m.KNNHitRatio(k) > m.ProbAtLeastOnePeer()+1e-12 {
			t.Fatalf("hit ratio exceeds peer-presence bound at k=%d", k)
		}
	}
}

func TestDensityOrderingLAvsRiverside(t *testing.T) {
	la := laModel()
	riverside := Model{
		MHDensity:     24.25, // 9700 / 400
		POIDensity:    3.625, // 1450 / 400
		TxRangeMiles:  la.TxRangeMiles,
		CacheSize:     50,
		LocalityMiles: 2,
	}
	if la.KNNHitRatio(5) <= riverside.KNNHitRatio(5) {
		t.Errorf("LA hit ratio %v not above Riverside %v",
			la.KNNHitRatio(5), riverside.KNNHitRatio(5))
	}
}

func TestZeroCoverageEdgeCases(t *testing.T) {
	m := laModel()
	m.CacheSize = 0
	if m.SinglePeerKNNHitProb(5) != 0 || m.KNNHitRatio(5) != 0 {
		t.Error("zero cache must give zero hit ratio")
	}
	m = laModel()
	m.TxRangeMiles = 0
	if m.KNNHitRatio(5) != 0 {
		t.Error("zero range must give zero hit ratio")
	}
}
