package broadcast

import (
	"math/rand"
	"sort"
	"testing"

	"lbsq/internal/geom"
)

func testConfig() Config {
	return Config{
		Area:                geom.NewRect(0, 0, 64, 64),
		Order:               4, // 16x16 grid
		PacketCapacity:      4,
		M:                   4,
		IndexEntriesPerSlot: 8,
	}
}

func randomPOIs(rng *rand.Rand, n int, span float64) []POI {
	pois := make([]POI, n)
	for i := range pois {
		pois[i] = POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*span, rng.Float64()*span)}
	}
	return pois
}

func mustSchedule(t *testing.T, pois []POI, cfg Config) *Schedule {
	t.Helper()
	s, err := NewSchedule(pois, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func bruteKNN(pois []POI, q geom.Point, k int) []POI {
	s := append([]POI(nil), pois...)
	sort.Slice(s, func(i, j int) bool {
		di, dj := s[i].Pos.DistSq(q), s[j].Pos.DistSq(q)
		if di != dj {
			return di < dj
		}
		return s[i].ID < s[j].ID
	})
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func kthDist(pois []POI, q geom.Point, k int) float64 {
	nn := bruteKNN(pois, q, k)
	if len(nn) == 0 {
		return 0
	}
	return nn[len(nn)-1].Pos.Dist(q)
}

func TestScheduleLayoutOneM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pois := randomPOIs(rng, 100, 64)
	s := mustSchedule(t, pois, testConfig())

	// Cell-granular packing: at capacity 4, 100 POIs need at least 25
	// packets, plus a few extra where a cell boundary forces an early
	// close.
	n := len(s.Packets())
	if n < 25 || n > 50 {
		t.Fatalf("packets = %d, want 25..50", n)
	}
	// Index slots = ceil(n / entriesPerSlot) with 8 entries per slot.
	wantIdx := (n + 7) / 8
	if s.IndexSlots() != wantIdx {
		t.Fatalf("index slots = %d want %d", s.IndexSlots(), wantIdx)
	}
	if s.M() != 4 {
		t.Fatalf("m = %d", s.M())
	}
	// Cycle = m index segments + one slot per packet.
	if want := int64(4*wantIdx + n); s.CycleLength() != want {
		t.Fatalf("cycle length = %d want %d", s.CycleLength(), want)
	}
	if s.TotalPOIs() != 100 {
		t.Fatalf("total POIs = %d", s.TotalPOIs())
	}
}

// TestCellGranularPacking pins the authority property the caches build
// on: no grid cell's POIs are ever split across packets.
func TestCellGranularPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pois := randomPOIs(rng, 400, 64)
	s := mustSchedule(t, pois, testConfig())
	owner := map[int64]int{} // cell value -> packet seq
	for _, p := range s.Packets() {
		for _, poi := range p.POIs {
			v := s.Curve().ValueOf(poi.Pos)
			if prev, ok := owner[v]; ok && prev != p.Seq {
				t.Fatalf("cell %d split across packets %d and %d", v, prev, p.Seq)
			}
			owner[v] = p.Seq
		}
	}
	// A cell denser than the capacity still lands in one packet.
	dense := make([]POI, 20)
	for i := range dense {
		dense[i] = POI{ID: int64(i), Pos: geom.Pt(1, 1)}
	}
	s2 := mustSchedule(t, dense, testConfig())
	if len(s2.Packets()) != 1 {
		t.Fatalf("dense cell spread over %d packets", len(s2.Packets()))
	}
	if len(s2.Packets()[0].POIs) != 20 {
		t.Fatalf("dense packet holds %d POIs", len(s2.Packets()[0].POIs))
	}
}

// The reference's cell-completeness test (onair_oracle_test.go), which
// GrowCompleteRect is checked against, on a brute-force scan of the POIs.
func TestCellComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pois := randomPOIs(rng, 200, 64)
	s := mustSchedule(t, pois, testConfig())
	ref := newRefClient(s)
	// With every packet retrieved, every cell is complete.
	all := map[int]bool{}
	for _, p := range s.Packets() {
		all[p.Seq] = true
	}
	for x := 0; x < s.Curve().Side(); x++ {
		for y := 0; y < s.Curve().Side(); y++ {
			if !ref.cellComplete(x, y, all) {
				t.Fatalf("cell (%d,%d) incomplete with full retrieval", x, y)
			}
		}
	}
	// With nothing retrieved, exactly the empty cells are complete.
	empty := map[int]bool{}
	for x := 0; x < s.Curve().Side(); x++ {
		for y := 0; y < s.Curve().Side(); y++ {
			hasPOI := false
			cell := s.Curve().CellRect(x, y)
			for _, p := range pois {
				if cell.Contains(p.Pos) {
					hasPOI = true
					break
				}
			}
			if got := ref.cellComplete(x, y, empty); got == hasPOI {
				t.Fatalf("cell (%d,%d): complete=%v hasPOI=%v", x, y, got, hasPOI)
			}
		}
	}
}

func TestGrowCompleteRect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pois := randomPOIs(rng, 300, 64)
	s := mustSchedule(t, pois, testConfig())
	seed := geom.NewRect(28, 28, 36, 36)

	// Retrieve everything: the rect grows to the area cap.
	var all []int
	for _, p := range s.Packets() {
		all = append(all, p.Seq)
	}
	var sc Scratch
	grown := s.GrowCompleteRect(&sc, seed, all, 1200)
	if !grown.ContainsRect(seed) {
		t.Fatalf("grown %v does not contain seed", grown)
	}
	if grown.Area() <= seed.Area() {
		t.Fatalf("full retrieval did not grow the region: %v", grown)
	}
	if grown.Area() > 1200 {
		t.Fatalf("area cap violated: %v", grown.Area())
	}
	// Soundness: every cell inside the grown rect is complete.
	got := map[int]bool{}
	for _, seq := range all {
		got[seq] = true
	}
	x0, y0 := s.Curve().CellOf(grown.Min)
	x1, y1 := s.Curve().CellOf(grown.Max)
	ref := newRefClient(s)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if !ref.cellComplete(x, y, got) {
				t.Fatalf("incomplete cell inside grown rect")
			}
		}
	}

	// Retrieve nothing: a seed over non-empty cells stays put.
	grown2 := s.GrowCompleteRect(&sc, seed, nil, 1e9)
	if grown2 != seed {
		t.Fatalf("unretrieved seed grew: %v", grown2)
	}
	// Empty seed passes through.
	if s.GrowCompleteRect(&sc, geom.Rect{}, all, 1e9) != (geom.Rect{}) {
		t.Fatal("empty seed must pass through")
	}
}

func TestWindowReducedDetailed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pois := randomPOIs(rng, 300, 64)
	s := mustSchedule(t, pois, testConfig())
	w := geom.NewRect(10, 10, 30, 30)
	filtered, raw, retrieved, acc := s.WindowReducedDetailed(new(Scratch), []geom.Rect{w}, 0)
	if len(raw) < len(filtered) {
		t.Fatalf("raw %d < filtered %d", len(raw), len(filtered))
	}
	if len(retrieved) != acc.PacketsRead {
		t.Fatalf("retrieved %d != PacketsRead %d", len(retrieved), acc.PacketsRead)
	}
	// raw is exactly the contents of the retrieved packets.
	count := 0
	for _, seq := range retrieved {
		count += len(s.Packets()[seq].POIs)
	}
	if count != len(raw) {
		t.Fatalf("raw %d != retrieved packet contents %d", len(raw), count)
	}
	for _, p := range filtered {
		if !w.Contains(p.Pos) {
			t.Fatal("filtered POI outside window")
		}
	}
}

func TestScheduleHilbertOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pois := randomPOIs(rng, 200, 64)
	s := mustSchedule(t, pois, testConfig())
	prev := int64(-1)
	for _, p := range s.Packets() {
		if p.First < prev {
			t.Fatalf("packet %d starts before previous packet's range", p.Seq)
		}
		if p.Last < p.First {
			t.Fatalf("packet %d has inverted range", p.Seq)
		}
		prev = p.Last
		// Every POI of the packet lies inside the packet region.
		for _, poi := range p.POIs {
			if !p.Region.Contains(poi.Pos) {
				t.Fatalf("packet %d: POI %v outside region %v", p.Seq, poi.Pos, p.Region)
			}
		}
	}
	// All POIs are broadcast exactly once.
	count := 0
	for _, p := range s.Packets() {
		count += len(p.POIs)
	}
	if count != 200 {
		t.Fatalf("broadcast POIs = %d", count)
	}
}

func TestNextIndexStartWraps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := mustSchedule(t, randomPOIs(rng, 40, 64), testConfig())
	cl := s.CycleLength()
	// From slot 0 the first index segment starts at 0.
	if got := s.nextIndexStart(0); got != 0 {
		t.Fatalf("nextIndexStart(0) = %d", got)
	}
	// Just past the last index segment, the next one is in the next cycle.
	lastStart := s.indexStarts[len(s.indexStarts)-1]
	got := s.nextIndexStart(lastStart + 1)
	if got != cl+s.indexStarts[0] {
		t.Fatalf("nextIndexStart(%d) = %d want %d", lastStart+1, got, cl+s.indexStarts[0])
	}
	// Absolute times in later cycles work too.
	if got := s.nextIndexStart(cl * 3); got != cl*3 {
		t.Fatalf("nextIndexStart at cycle boundary = %d", got)
	}
}

func TestOnAirKNNCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pois := randomPOIs(rng, 300, 64)
	s := mustSchedule(t, pois, testConfig())
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		k := 1 + rng.Intn(8)
		start := rng.Int63n(s.CycleLength() * 2)
		got, acc := s.KNN(q, k, start)
		// The retrieved set must contain the true k nearest.
		want := bruteKNN(pois, q, k)
		ids := map[int64]bool{}
		for _, p := range got {
			ids[p.ID] = true
		}
		for _, w := range want {
			if !ids[w.ID] {
				t.Fatalf("trial %d: true NN %d (d=%v) missing from on-air result",
					trial, w.ID, w.Pos.Dist(q))
			}
		}
		if acc.Latency <= 0 || acc.Tuning <= 0 || acc.PacketsRead == 0 {
			t.Fatalf("trial %d: degenerate access %+v", trial, acc)
		}
		if acc.IndexReads != 1 {
			t.Fatalf("trial %d: index reads = %d", trial, acc.IndexReads)
		}
	}
}

func TestOnAirKNNFewerPOIsThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pois := randomPOIs(rng, 5, 64)
	s := mustSchedule(t, pois, testConfig())
	got, _ := s.KNN(geom.Pt(32, 32), 10, 0)
	if len(got) != 5 {
		t.Fatalf("got %d POIs want all 5", len(got))
	}
}

func TestOnAirKNNEmptyFile(t *testing.T) {
	s := mustSchedule(t, nil, testConfig())
	got, acc := s.KNN(geom.Pt(1, 1), 3, 0)
	if got != nil {
		t.Fatalf("empty file KNN = %v", got)
	}
	if acc.IndexReads != 1 {
		t.Fatalf("index reads = %d", acc.IndexReads)
	}
	if s.CycleLength() < 1 {
		t.Fatal("cycle must contain at least the index segment")
	}
}

func TestKNNWithUpperBoundReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pois := randomPOIs(rng, 400, 64)
	s := mustSchedule(t, pois, testConfig())
	q := geom.Pt(32, 32)
	k := 5
	_, plain := s.KNN(q, k, 0)

	// A tight, valid upper bound: the true k-th NN distance.
	upper := kthDist(pois, q, k)
	got, bounded := s.KNNWithBounds(q, k, 0, Bounds{Upper: upper * 1.001})
	if bounded.PacketsRead > plain.PacketsRead {
		t.Errorf("upper bound increased packets: %d > %d", bounded.PacketsRead, plain.PacketsRead)
	}
	// Result must still contain the true kNN.
	want := bruteKNN(pois, q, k)
	ids := map[int64]bool{}
	for _, p := range got {
		ids[p.ID] = true
	}
	for _, w := range want {
		if !ids[w.ID] {
			t.Fatalf("true NN %d missing with upper bound", w.ID)
		}
	}
}

func TestKNNWithLowerBoundSkipsPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pois := randomPOIs(rng, 500, 64)
	s := mustSchedule(t, pois, testConfig())
	q := geom.Pt(32, 32)
	k := 20
	upper := kthDist(pois, q, k) * 1.01
	// Claim verified knowledge of everything within half the k-th
	// distance: packets wholly inside that circle are skipped.
	lower := upper / 2
	got, acc := s.KNNWithBounds(q, k, 0, Bounds{Upper: upper, Lower: lower})
	// Every true NN farther than lower must be present (POIs within lower
	// are the caller's verified knowledge).
	want := bruteKNN(pois, q, k)
	ids := map[int64]bool{}
	for _, p := range got {
		ids[p.ID] = true
	}
	for _, w := range want {
		if w.Pos.Dist(q) > lower && !ids[w.ID] {
			t.Fatalf("NN %d (d=%v > lower=%v) missing", w.ID, w.Pos.Dist(q), lower)
		}
	}
	if acc.PacketsSkipped == 0 {
		t.Log("no packets skipped (geometry-dependent); acceptable but unusual")
	}
}

func TestOnAirWindowCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pois := randomPOIs(rng, 300, 64)
	s := mustSchedule(t, pois, testConfig())
	for trial := 0; trial < 40; trial++ {
		a := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		w := geom.NewRect(a.X, a.Y, a.X+rng.Float64()*20, a.Y+rng.Float64()*20)
		start := rng.Int63n(s.CycleLength())
		got, _ := s.Window(w, start)
		wantCount := 0
		for _, p := range pois {
			if w.Contains(p.Pos) {
				wantCount++
			}
		}
		if len(got) != wantCount {
			t.Fatalf("trial %d: window got %d want %d", trial, len(got), wantCount)
		}
		for _, p := range got {
			if !w.Contains(p.Pos) {
				t.Fatalf("trial %d: POI outside window returned", trial)
			}
		}
	}
}

func TestWindowReducedFiltersAndFetchesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pois := randomPOIs(rng, 400, 64)
	s := mustSchedule(t, pois, testConfig())
	w := geom.NewRect(10, 10, 40, 40)
	_, full := s.Window(w, 0)
	// Pretend the left half is already verified: only the right half
	// needs the channel.
	reduced := geom.NewRect(25, 10, 40, 40)
	got, racc := s.WindowReduced([]geom.Rect{reduced}, 0)
	if racc.PacketsRead > full.PacketsRead {
		t.Errorf("reduced window read more packets: %d > %d", racc.PacketsRead, full.PacketsRead)
	}
	for _, p := range got {
		if !reduced.Contains(p.Pos) {
			t.Fatalf("POI outside reduced window returned")
		}
	}
	wantCount := 0
	for _, p := range pois {
		if reduced.Contains(p.Pos) {
			wantCount++
		}
	}
	if len(got) != wantCount {
		t.Fatalf("reduced window got %d want %d", len(got), wantCount)
	}
}

func TestWindowReducedEmptyWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := mustSchedule(t, randomPOIs(rng, 50, 64), testConfig())
	got, acc := s.WindowReduced(nil, 0)
	if len(got) != 0 || acc.PacketsRead != 0 {
		t.Fatalf("empty windows got %d POIs, %d packets", len(got), acc.PacketsRead)
	}
}

func TestLatencyAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pois := randomPOIs(rng, 120, 64)
	s := mustSchedule(t, pois, testConfig())
	q := geom.Pt(32, 32)
	// Latency from any start is bounded by two full cycles (index wait +
	// data wrap).
	for start := int64(0); start < s.CycleLength(); start += 3 {
		_, acc := s.KNN(q, 3, start)
		if acc.Latency > 2*s.CycleLength() {
			t.Fatalf("latency %d exceeds 2 cycles (%d)", acc.Latency, 2*s.CycleLength())
		}
		if acc.Tuning > acc.Latency {
			t.Fatalf("tuning %d exceeds latency %d", acc.Tuning, acc.Latency)
		}
	}
}

func TestMClampedToPacketCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := testConfig()
	cfg.M = 100                     // more replicas than packets
	pois := randomPOIs(rng, 10, 64) // 3 packets at capacity 4
	s := mustSchedule(t, pois, cfg)
	if s.M() > len(s.Packets()) {
		t.Fatalf("m = %d with only %d packets", s.M(), len(s.Packets()))
	}
}

func TestLargerMShortensIndexWait(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pois := randomPOIs(rng, 600, 64)
	mkCfg := func(m int) Config {
		c := testConfig()
		c.M = m
		return c
	}
	s1 := mustSchedule(t, pois, mkCfg(1))
	s8 := mustSchedule(t, pois, mkCfg(8))
	q := geom.Pt(32, 32)
	avg := func(s *Schedule) float64 { return s.ExpectedKNNLatency(q, 5, 32) }
	// More index replicas trade a longer cycle for shorter probe waits;
	// the probe component must shrink. We compare the average wait until
	// the index is in hand.
	wait := func(s *Schedule) float64 {
		total := 0.0
		const samples = 64
		for i := 0; i < samples; i++ {
			start := int64(i) * s.CycleLength() / samples
			_, acc := s.probeIndex(start)
			total += float64(acc.Latency)
		}
		return total / samples
	}
	if wait(s8) >= wait(s1) {
		t.Errorf("m=8 index wait %v not below m=1 wait %v", wait(s8), wait(s1))
	}
	_ = avg // exercised in benchmarks
}

func TestInvalidConfig(t *testing.T) {
	if _, err := NewSchedule(nil, Config{Area: geom.NewRect(0, 0, 1, 1), M: -1}); err == nil {
		t.Error("negative m must be rejected")
	}
	if _, err := NewSchedule(nil, Config{Area: geom.Rect{}}); err == nil {
		t.Error("empty area must be rejected")
	}
}

func TestLossyChannelStillCorrectButSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pois := randomPOIs(rng, 300, 64)
	clean := mustSchedule(t, pois, testConfig())
	lossyCfg := testConfig()
	lossyCfg.LossRate = 0.4
	lossyCfg.LossSeed = 1
	lossy := mustSchedule(t, pois, lossyCfg)

	var cleanLat, lossyLat int64
	var retrans int
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		k := 1 + rng.Intn(6)
		wantIDs := map[int64]bool{}
		for _, p := range bruteKNN(pois, q, k) {
			wantIDs[p.ID] = true
		}
		for _, s := range []*Schedule{clean, lossy} {
			got, acc := s.KNN(q, k, int64(trial)*11)
			ids := map[int64]bool{}
			for _, p := range got {
				ids[p.ID] = true
			}
			for id := range wantIDs {
				if !ids[id] {
					t.Fatalf("loss=%v: true NN %d missing", s.lossRate, id)
				}
			}
			if s == clean {
				cleanLat += acc.Latency
				if acc.Retransmissions != 0 {
					t.Fatal("lossless channel reported retransmissions")
				}
			} else {
				lossyLat += acc.Latency
				retrans += acc.Retransmissions
			}
		}
	}
	if retrans == 0 {
		t.Fatal("40% loss produced no retransmissions")
	}
	if lossyLat <= cleanLat {
		t.Errorf("lossy latency %d not above clean %d", lossyLat, cleanLat)
	}
}

func TestLossRateClamped(t *testing.T) {
	cfg := testConfig()
	cfg.LossRate = 5 // would loop forever unclamped
	rng := rand.New(rand.NewSource(41))
	s := mustSchedule(t, randomPOIs(rng, 50, 64), cfg)
	if s.lossRate > 0.95 {
		t.Fatalf("loss rate %v not clamped", s.lossRate)
	}
	// Query still terminates.
	if got, _ := s.KNN(geom.Pt(32, 32), 3, 0); len(got) == 0 {
		t.Fatal("query under max loss returned nothing")
	}
	cfg.LossRate = -1
	s2 := mustSchedule(t, randomPOIs(rng, 50, 64), cfg)
	if s2.lossRate != 0 {
		t.Fatalf("negative loss rate = %v", s2.lossRate)
	}
}

func TestTreeIndexReducesTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pois := randomPOIs(rng, 600, 64)
	flatCfg := testConfig()
	flat := mustSchedule(t, pois, flatCfg)
	treeCfg := testConfig()
	treeCfg.TreeIndex = true
	tree := mustSchedule(t, pois, treeCfg)

	var flatTuning, treeTuning, flatLat, treeLat int64
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*64, rng.Float64()*64)
		gotF, accF := flat.KNN(q, 5, int64(trial)*13)
		gotT, accT := tree.KNN(q, 5, int64(trial)*13)
		if len(gotF) != len(gotT) {
			t.Fatalf("trial %d: result sizes differ", trial)
		}
		flatTuning += accF.Tuning
		treeTuning += accT.Tuning
		flatLat += accF.Latency
		treeLat += accT.Latency
	}
	if treeTuning >= flatTuning {
		t.Errorf("tree index tuning %d not below flat %d", treeTuning, flatTuning)
	}
	if treeLat != flatLat {
		t.Errorf("tree index changed latency: %d vs %d", treeLat, flatLat)
	}
}

// indexTuning counts leaf slots by walking the ascending candidate list;
// the map-based count it replaced (refClient) is the reference.
func TestIndexTuningMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, per := range []int{1, 3, 8, 16} {
		cfg := testConfig()
		cfg.TreeIndex = true
		cfg.IndexEntriesPerSlot = per
		s := mustSchedule(t, randomPOIs(rng, 600, 64), cfg)
		ref := newRefClient(s)
		for trial := 0; trial < 200; trial++ {
			var need []int // ascending, as the clients build it
			for seq := range s.Packets() {
				if rng.Intn(1+trial%7) == 0 {
					need = append(need, seq)
				}
			}
			if got, want := s.indexTuning(need), ref.indexTuning(need); got != want {
				t.Fatalf("%d entries per slot, candidates %v: %d leaf slots, map count %d", per, need, got, want)
			}
		}
	}
	flat := mustSchedule(t, randomPOIs(rng, 50, 64), testConfig())
	if got := flat.indexTuning([]int{0, 1, 9}); got != 0 {
		t.Fatalf("flat index tunes %d extra slots", got)
	}
}
