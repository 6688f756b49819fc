package sim

import (
	"bytes"
	"math"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/geom"
	"lbsq/internal/trace"
)

func TestTable3ParameterSets(t *testing.T) {
	la, sub, riv := LACity(), SyntheticSuburbia(), RiversideCounty()
	cases := []struct {
		p       Params
		poi, mh int
		rate    float64
	}{
		{la, 2750, 93300, 6220},
		{sub, 2100, 51500, 3440},
		{riv, 1450, 9700, 650},
	}
	for _, c := range cases {
		if c.p.POINumber != c.poi || c.p.MHNumber != c.mh || c.p.QueryRate != c.rate {
			t.Errorf("%s: POI=%d MH=%d rate=%v", c.p.Name, c.p.POINumber, c.p.MHNumber, c.p.QueryRate)
		}
		if c.p.CacheSize != 50 || c.p.TxRangeMeters != 200 || c.p.K != 5 ||
			c.p.WindowPct != 3 || c.p.WindowDistMiles != 1 || c.p.DurationHours != 10 {
			t.Errorf("%s: shared Table 3 values wrong", c.p.Name)
		}
		if c.p.AreaMiles != 20 {
			t.Errorf("%s: area = %v", c.p.Name, c.p.AreaMiles)
		}
	}
	if got := ParameterSets(); len(got) != 3 || got[0].Name != la.Name {
		t.Error("ParameterSets order wrong")
	}
}

func TestDensityOrdering(t *testing.T) {
	la, sub, riv := LACity(), SyntheticSuburbia(), RiversideCounty()
	if !(la.MHDensity() > sub.MHDensity() && sub.MHDensity() > riv.MHDensity()) {
		t.Error("vehicle density ordering violated")
	}
	if !(la.POIDensity() > sub.POIDensity() && sub.POIDensity() > riv.POIDensity()) {
		t.Error("POI density ordering violated")
	}
}

func TestScaledPreservesDensities(t *testing.T) {
	la := LACity()
	s := la.Scaled(5)
	if math.Abs(s.MHDensity()-la.MHDensity()) > 1 {
		t.Errorf("MH density drifted: %v vs %v", s.MHDensity(), la.MHDensity())
	}
	if math.Abs(s.POIDensity()-la.POIDensity()) > 0.2 {
		t.Errorf("POI density drifted: %v vs %v", s.POIDensity(), la.POIDensity())
	}
	wantRate := la.QueryRate * 25 / 400
	if math.Abs(s.QueryRate-wantRate) > 1e-9 {
		t.Errorf("query rate = %v want %v", s.QueryRate, wantRate)
	}
	if s.AreaMiles != 5 {
		t.Errorf("area = %v", s.AreaMiles)
	}
	// Extreme downscale still yields a runnable world.
	tiny := la.Scaled(0.1)
	if tiny.MHNumber < 1 || tiny.POINumber < 1 || tiny.QueryRate <= 0 {
		t.Errorf("tiny scale invalid: %+v", tiny)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{MHNumber: 0, QueryRate: 1, DurationHours: 1, K: 1},
		{MHNumber: 1, QueryRate: 0, DurationHours: 1, K: 1},
		{MHNumber: 1, QueryRate: 1, DurationHours: 0, K: 1},
		{MHNumber: 1, QueryRate: 1, DurationHours: 1, K: 0, Kind: KNNQuery},
		{MHNumber: 1, QueryRate: 1, DurationHours: 1, Kind: WindowQuery, WindowPct: 0},
		{MHNumber: 1, QueryRate: 1, DurationHours: 1, K: 1, TxRangeMeters: -1},
		{MHNumber: 1, QueryRate: 1, DurationHours: 1, K: 1, POINumber: -1},
	}
	for i, p := range bad {
		if _, err := NewWorld(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	p := LACity()
	if math.Abs(p.TxRangeMiles()-200/1609.344) > 1e-12 {
		t.Errorf("TxRangeMiles = %v", p.TxRangeMiles())
	}
	if math.Abs(p.POIDensity()-2750.0/400) > 1e-12 {
		t.Errorf("POIDensity = %v", p.POIDensity())
	}
	if math.Abs(p.WindowSideMiles()-0.6) > 1e-12 {
		t.Errorf("WindowSideMiles = %v", p.WindowSideMiles())
	}
	if KNNQuery.String() != "knn" || WindowQuery.String() != "window" {
		t.Error("QueryKind strings wrong")
	}
}

// smallWorld is a fast, dense configuration for behavioral tests.
func smallWorld(t *testing.T, kind QueryKind, seed int64) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = kind
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = kind == KNNQuery
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	return w
}

func TestKNNSimulationInvariants(t *testing.T) {
	w := smallWorld(t, KNNQuery, 1)
	stats := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries executed")
	}
	if stats.Verified+stats.Approximate+stats.Broadcast != stats.Queries {
		t.Fatalf("shares don't sum: %+v", stats)
	}
	total := stats.VerifiedPct() + stats.ApproximatePct() + stats.BroadcastPct()
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("percentages sum to %v", total)
	}
	if stats.Broadcast > 0 && stats.AvgLatencySlots() <= 0 {
		t.Fatal("broadcast queries must have positive latency")
	}
	if stats.PeerRequests == 0 {
		t.Fatal("no P2P requests recorded")
	}
}

func TestWindowSimulationInvariants(t *testing.T) {
	w := smallWorld(t, WindowQuery, 2)
	stats := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries executed")
	}
	if stats.Approximate != 0 {
		t.Fatal("window queries cannot be approximate")
	}
	if stats.Verified+stats.Broadcast != stats.Queries {
		t.Fatalf("shares don't sum: %+v", stats)
	}
}

func TestWarmupExcludesQueries(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.1)
	p.Kind = KNNQuery
	p.Seed = 3
	p.TimeStepSec = 10
	p.WarmupFrac = 0.99 // nearly everything excluded
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	full := w.Run()
	p2 := p
	p2.WarmupFrac = 0.1
	w2, err := NewWorld(p2)
	if err != nil {
		t.Fatal(err)
	}
	more := w2.Run()
	if full.Queries >= more.Queries {
		t.Fatalf("warmup 0.99 counted %d queries, warmup 0.1 counted %d",
			full.Queries, more.Queries)
	}
}

func TestSharingGrowsWithDensity(t *testing.T) {
	// LA-density world vs Riverside-density world at the same scale: the
	// dense one must resolve a strictly larger share via peers.
	mk := func(base Params, seed int64) Stats {
		p := base.Scaled(2).WithDuration(0.15)
		p.Kind = KNNQuery
		p.Seed = seed
		p.TimeStepSec = 10
		p.AcceptApproximate = true
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		s := w.Run()
		if err := w.SelfCheckErr(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	dense := mk(LACity(), 4)
	sparse := mk(RiversideCounty(), 4)
	if dense.SharedPct() <= sparse.SharedPct() {
		t.Errorf("dense shared %.1f%% <= sparse %.1f%%",
			dense.SharedPct(), sparse.SharedPct())
	}
}

func TestBaselineSampling(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.08)
	p.Kind = KNNQuery
	p.Seed = 5
	p.TimeStepSec = 10
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.CompareBaseline = true
	w.BaselineSampleRate = 1
	stats := w.Run()
	if stats.BaselineSampled != stats.Queries {
		t.Fatalf("baseline sampled %d of %d", stats.BaselineSampled, stats.Queries)
	}
	if stats.BaselineSampled > 0 && stats.BaselineMeanLatencySlots() <= 0 {
		t.Fatal("baseline latency must be positive")
	}
	// Sharing can only reduce mean system latency versus the baseline.
	if stats.MeanSystemLatencySlots() > stats.BaselineMeanLatencySlots()+1 {
		t.Errorf("sharing latency %v above baseline %v",
			stats.MeanSystemLatencySlots(), stats.BaselineMeanLatencySlots())
	}
}

func TestLRUPolicyRuns(t *testing.T) {
	p := LACity().Scaled(1.5).WithDuration(0.08)
	p.Kind = KNNQuery
	p.Seed = 6
	p.TimeStepSec = 10
	p.CachePolicy = cache.LRU
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	stats := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries under LRU")
	}
}

func TestStatsAccessors(t *testing.T) {
	var s Stats
	if s.VerifiedPct() != 0 || s.AvgLatencySlots() != 0 || s.AvgPeers() != 0 ||
		s.MeanSystemLatencySlots() != 0 || s.BaselineMeanLatencySlots() != 0 {
		t.Error("zero stats must report zeros")
	}
	s = Stats{Queries: 10, Verified: 5, Approximate: 2, Broadcast: 3,
		LatencySlots: 300, TuningSlots: 60, peersSum: 40}
	if s.VerifiedPct() != 50 || s.ApproximatePct() != 20 || s.BroadcastPct() != 30 {
		t.Error("percentage accessors wrong")
	}
	if s.SharedPct() != 70 {
		t.Errorf("SharedPct = %v", s.SharedPct())
	}
	if s.AvgLatencySlots() != 100 || s.AvgTuningSlots() != 20 {
		t.Error("latency accessors wrong")
	}
	if s.MeanSystemLatencySlots() != 30 {
		t.Errorf("MeanSystemLatencySlots = %v", s.MeanSystemLatencySlots())
	}
	if s.AvgPeers() != 4 {
		t.Errorf("AvgPeers = %v", s.AvgPeers())
	}
}

func TestPeerBytesAccounting(t *testing.T) {
	w := smallWorld(t, KNNQuery, 9)
	stats := w.Run()
	if stats.Queries == 0 {
		t.Fatal("no queries")
	}
	if stats.PeerBytes <= 0 {
		t.Fatal("no P2P bytes recorded")
	}
	if stats.AvgPeerBytes() <= 0 {
		t.Fatal("AvgPeerBytes not positive")
	}
	// A request costs at least its fixed size per counted query.
	if stats.AvgPeerBytes() < 50 {
		t.Fatalf("AvgPeerBytes %v implausibly small", stats.AvgPeerBytes())
	}
}

func TestMultiHopReachesMorePeers(t *testing.T) {
	mk := func(hops int) Stats {
		p := RiversideCounty().Scaled(3).WithDuration(0.1)
		p.Kind = KNNQuery
		p.Seed = 10
		p.TimeStepSec = 10
		p.SharingHops = hops
		p.PrefillQueriesPerHost = 5
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	one := mk(1)
	three := mk(3)
	if three.AvgPeers() < one.AvgPeers() {
		t.Errorf("3 hops reached %.2f peers vs %.2f at 1 hop",
			three.AvgPeers(), one.AvgPeers())
	}
}

func TestClusteredPOIFieldStaysExact(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.1)
	p.Kind = KNNQuery
	p.Seed = 11
	p.TimeStepSec = 10
	p.POIClusters = 5
	p.AcceptApproximate = false // exactness must hold regardless of field shape
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	stats := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("clustered field broke exactness: %v", err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries")
	}
	// The field really is clustered: POI positions concentrate.
	db := w.Database()
	var sumX, sumY float64
	for _, poi := range db {
		sumX += poi.Pos.X
		sumY += poi.Pos.Y
	}
	mean := geom.Pt(sumX/float64(len(db)), sumY/float64(len(db)))
	var inner int
	for _, poi := range db {
		if poi.Pos.Dist(mean) < p.AreaMiles/2 {
			inner++
		}
	}
	if inner == 0 {
		t.Fatal("clustering sanity check failed")
	}
}

func TestWorldAccessors(t *testing.T) {
	p := LACity().Scaled(1).WithDuration(0.05)
	p.Kind = KNNQuery
	p.Seed = 12
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Schedule() == nil {
		t.Error("Schedule accessor nil")
	}
	if len(w.Database()) != p.POINumber {
		t.Errorf("Database = %d POIs", len(w.Database()))
	}
	if w.Now() != 0 {
		t.Errorf("fresh world Now = %v", w.Now())
	}
	w.Step(7)
	if w.Now() != 7 {
		t.Errorf("Now after step = %v", w.Now())
	}
}

func TestWindowBaselineSampling(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.08)
	p.Kind = WindowQuery
	p.Seed = 13
	p.TimeStepSec = 10
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.CompareBaseline = true
	w.BaselineSampleRate = 1
	stats := w.Run()
	if stats.BaselineSampled != stats.Queries {
		t.Fatalf("window baseline sampled %d of %d", stats.BaselineSampled, stats.Queries)
	}
	if stats.Queries > 0 && stats.BaselineMeanLatencySlots() <= 0 {
		t.Fatal("window baseline latency must be positive")
	}
}

func TestPrefillRespectsCapacityAndSoundness(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		p := LACity().Scaled(2).WithDuration(0.05)
		p.Kind = kind
		p.Seed = 14
		p.PrefillQueriesPerHost = 8
		p.PrefillRadiusMiles = 1
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		// Caches are filled and within capacity; every region is sound.
		filled := 0
		for ti := range w.caches {
			for i := range w.caches[ti] {
				c := &w.caches[ti][i]
				if c.Size() > w.Params.CacheSize {
					t.Fatalf("%v: cache over capacity", kind)
				}
				if c.Size() > 0 {
					filled++
				}
				for _, r := range c.Regions() {
					want := w.poisInRect(nil, ti, r.Rect)
					if len(want) != len(r.POIs) {
						t.Fatalf("%v: prefilled region holds %d POIs, database has %d inside",
							kind, len(r.POIs), len(want))
					}
				}
			}
		}
		if filled < len(w.mob)/2 {
			t.Fatalf("%v: only %d/%d hosts prefilled", kind, filled, len(w.mob))
		}
	}
}

func TestStatsTuningAndBytesAccessors(t *testing.T) {
	s := Stats{Queries: 4, Broadcast: 2, TuningSlots: 10, PeerBytes: 400}
	if s.AvgTuningSlots() != 5 {
		t.Errorf("AvgTuningSlots = %v", s.AvgTuningSlots())
	}
	if s.AvgPeerBytes() != 100 {
		t.Errorf("AvgPeerBytes = %v", s.AvgPeerBytes())
	}
	var zero Stats
	if zero.AvgTuningSlots() != 0 || zero.AvgPeerBytes() != 0 {
		t.Error("zero stats accessors must return 0")
	}
}

func TestValidateWarmupFrac(t *testing.T) {
	p := LACity()
	p.WarmupFrac = 1.5
	if _, err := NewWorld(p); err == nil {
		t.Error("WarmupFrac > 1 accepted")
	}
	p = LACity()
	p.WarmupFrac = -0.1
	if _, err := NewWorld(p); err == nil {
		t.Error("negative WarmupFrac accepted")
	}
}

func TestSelfCheckCatchesCorruption(t *testing.T) {
	// Force a mismatch by corrupting a result before checking.
	p := LACity().Scaled(1).WithDuration(0.05)
	p.Seed = 15
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	// Wrong count.
	w.checkKNN(0, w.Database()[0].Pos, 3, nil)
	if w.SelfCheckErr() == nil {
		t.Fatal("count mismatch not caught")
	}
	// First error is sticky.
	first := w.SelfCheckErr()
	w.checkKNN(0, w.Database()[0].Pos, 1, nil)
	if w.SelfCheckErr() != first {
		t.Fatal("first self-check error not sticky")
	}

	w2, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w2.SelfCheck = true
	// Wrong distance at right count.
	wrong := []broadcast.POI{{ID: 999, Pos: geom.Pt(0, 0)}}
	w2.checkKNN(0, geom.Pt(10, 10), 1, wrong)
	if w2.SelfCheckErr() == nil {
		t.Fatal("distance mismatch not caught")
	}

	w3, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w3.SelfCheck = true
	win := geom.NewRect(0, 0, 20, 20)
	w3.checkWindow(0, win, nil)
	if w3.SelfCheckErr() == nil {
		t.Fatal("window count mismatch not caught")
	}
	w4, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	// Same count, wrong members.
	truth := w4.types[0].truth.Window(win)
	fake := make([]broadcast.POI, len(truth))
	for i := range fake {
		fake[i] = broadcast.POI{ID: int64(100000 + i), Pos: geom.Pt(1, 1)}
	}
	w4.checkWindow(0, win, fake)
	if w4.SelfCheckErr() == nil {
		t.Fatal("window member mismatch not caught")
	}
}

func TestOwnCacheOptionRaisesSharing(t *testing.T) {
	mk := func(own bool) Stats {
		p := LACity().Scaled(2).WithDuration(0.15)
		p.Kind = KNNQuery
		p.Seed = 16
		p.TimeStepSec = 10
		p.AcceptApproximate = true
		p.UseOwnCache = own
		p.PrefillQueriesPerHost = 5
		p.PrefillRadiusMiles = 0.5 // knowledge stays near the host
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		w.SelfCheck = true
		s := w.Run()
		if err := w.SelfCheckErr(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	without := mk(false)
	with := mk(true)
	if with.SharedPct() < without.SharedPct() {
		t.Errorf("own cache lowered sharing: %.1f%% -> %.1f%%",
			without.SharedPct(), with.SharedPct())
	}
}

func TestTraceRecording(t *testing.T) {
	var buf bytes.Buffer
	w := smallWorld(t, KNNQuery, 17)
	w.Trace = trace.NewWriter(&buf)
	stats := w.Run()
	if err := w.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != stats.Queries {
		t.Fatalf("trace has %d events, stats counted %d", len(events), stats.Queries)
	}
	sum := trace.Summarize(events)
	if sum.ByOutcome["verified"] != stats.Verified ||
		sum.ByOutcome["approximate"] != stats.Approximate ||
		sum.ByOutcome["broadcast"] != stats.Broadcast {
		t.Fatalf("trace outcomes %v disagree with stats %+v", sum.ByOutcome, stats)
	}
}

func TestMultipleDataTypes(t *testing.T) {
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = KNNQuery
	p.Seed = 18
	p.TimeStepSec = 10
	p.POITypes = 3
	p.AcceptApproximate = true
	p.PrefillQueriesPerHost = 5
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	stats := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("multi-type self-check: %v", err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries")
	}
	// Every host carries one cache per type.
	if got := len(w.caches); got != 3 {
		t.Fatalf("hosts have %d caches, want 3", got)
	}
	// The three types hold independent POI fields.
	if len(w.types) != 3 {
		t.Fatalf("%d type states", len(w.types))
	}
	same := 0
	for i := range w.types[0].db {
		if w.types[0].db[i].Pos == w.types[1].db[i].Pos {
			same++
		}
	}
	if same == len(w.types[0].db) {
		t.Fatal("type fields are identical — generation not independent")
	}
	// Sharing still works across a multi-type workload.
	if stats.SharedPct() == 0 {
		t.Error("no sharing in multi-type run")
	}
}
