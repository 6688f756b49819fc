package broadcast

// Differential oracles for the on-air client kernels. refClient holds the
// bodies the kernels replaced — SearchRadius filling and sorting a
// P-entry array, the clients append-growing fresh slices, the window side
// keyed by a cell-key map, indexTuning and GrowCompleteRect building a
// map per call — and every check runs one input through both, the kernel
// always on the same dirty scratch. Loss draws come out of the schedule,
// so each side runs on its own schedule built from the same Config.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lbsq/internal/geom"
)

type refClient struct {
	s          *Schedule
	cellPacket map[int64]int // cell key -> packet seq (only non-empty cells)
	cellKey    func(x, y int) int64
}

func newRefClient(s *Schedule) *refClient {
	r := &refClient{s: s, cellPacket: map[int64]int{}, cellKey: cellKeyFunc(s.ordering, s.curve)}
	for _, p := range s.packets {
		for _, poi := range p.POIs {
			cx, cy := s.curve.CellOf(poi.Pos)
			r.cellPacket[r.cellKey(cx, cy)] = p.Seq
		}
	}
	return r
}

func (r *refClient) indexTuning(candidates []int) int64 {
	s := r.s
	if !s.treeIndex || s.entriesPerSlot <= 0 {
		return 0
	}
	slots := map[int]bool{}
	for _, seq := range candidates {
		slots[seq/s.entriesPerSlot] = true
	}
	return int64(len(slots))
}

func (r *refClient) retrieve(seqs []int, from int64) ([]POI, int64, Access) {
	s := r.s
	var acc Access
	if len(seqs) == 0 {
		return nil, from, acc
	}
	last := from
	var pois []POI
	for _, seq := range seqs {
		at := s.nextPacketArrival(seq, from)
		for s.lossRate > 0 && s.lossRng.Float64() < s.lossRate {
			acc.Tuning++
			acc.Retransmissions++
			at = s.nextPacketArrival(seq, at+1)
		}
		if at > last {
			last = at
		}
		pois = append(pois, s.packets[seq].POIs...)
		acc.Tuning++
		acc.PacketsRead++
	}
	acc.Latency = last - from + 1
	return pois, last + 1, acc
}

func (r *refClient) knnWithBounds(q geom.Point, k int, start int64, b Bounds) ([]POI, Access) {
	s := r.s
	if k <= 0 || len(s.packets) == 0 {
		_, acc := s.probeIndex(start)
		return nil, acc
	}
	after, acc := s.probeIndex(start)

	radius := b.Upper
	if radius <= 0 {
		radius = r.searchRadius(q, k)
	}
	searchRange := geom.RectAround(q, radius)

	var need []int
	for _, p := range s.packets {
		if !p.Region.Intersects(searchRange) {
			continue
		}
		if b.Lower > 0 && p.Region.MaxDist(q) < b.Lower {
			acc.PacketsSkipped++
			continue
		}
		need = append(need, p.Seq)
	}
	acc.Tuning += r.indexTuning(need)
	pois, _, racc := r.retrieve(need, after)
	acc.add(racc)
	return pois, acc
}

// searchRadius indexes ps[-1] on an empty schedule with k < 0; the kernel
// answers 0 there and the checks do not ask the reference.
func (r *refClient) searchRadius(q geom.Point, k int) float64 {
	s := r.s
	type pk struct {
		maxDist float64
		count   int
	}
	ps := make([]pk, len(s.packets))
	total := 0
	for i, p := range s.packets {
		ps[i] = pk{maxDist: p.Region.MaxDist(q), count: len(p.POIs)}
		total += len(p.POIs)
	}
	if total <= k {
		max := 0.0
		for _, p := range ps {
			if p.maxDist > max {
				max = p.maxDist
			}
		}
		return max
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].maxDist < ps[j].maxDist })
	acc := 0
	for _, p := range ps {
		acc += p.count
		if acc >= k {
			return p.maxDist
		}
	}
	return ps[len(ps)-1].maxDist
}

func (r *refClient) windowReducedDetailed(windows []geom.Rect, start int64) (filtered, raw []POI, retrieved []int, acc Access) {
	s := r.s
	after, acc := s.probeIndex(start)
	if len(s.packets) == 0 {
		return nil, nil, nil, acc
	}
	var need []int
	for _, p := range s.packets {
		hit := false
		for _, w := range windows {
			if p.Region.Intersects(w) {
				hit = true
				break
			}
		}
		if hit {
			need = append(need, p.Seq)
		} else {
			acc.PacketsSkipped++
		}
	}
	acc.Tuning += r.indexTuning(need)
	raw, _, racc := r.retrieve(need, after)
	acc.add(racc)
	for _, poi := range raw {
		for _, w := range windows {
			if w.Contains(poi.Pos) {
				filtered = append(filtered, poi)
				break
			}
		}
	}
	return filtered, raw, need, acc
}

func (r *refClient) cellComplete(x, y int, retrieved map[int]bool) bool {
	seq, ok := r.cellPacket[r.cellKey(x, y)]
	if !ok {
		return true
	}
	return retrieved[seq]
}

func (r *refClient) growCompleteRect(seed geom.Rect, retrieved []int, maxArea float64) geom.Rect {
	s := r.s
	if seed.Empty() {
		return seed
	}
	got := make(map[int]bool, len(retrieved))
	for _, seq := range retrieved {
		got[seq] = true
	}
	x0, y0 := s.curve.CellOf(seed.Min)
	x1, y1 := s.curve.CellOf(seed.Max)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if !r.cellComplete(x, y, got) {
				return seed
			}
		}
	}
	cellRect := func(ax0, ay0, ax1, ay1 int) geom.Rect {
		return s.curve.CellRect(ax0, ay0).Union(s.curve.CellRect(ax1, ay1))
	}
	colComplete := func(x, ay0, ay1 int) bool {
		if x < 0 || x >= s.curve.Side() {
			return false
		}
		for y := ay0; y <= ay1; y++ {
			if !r.cellComplete(x, y, got) {
				return false
			}
		}
		return true
	}
	rowComplete := func(y, ax0, ax1 int) bool {
		if y < 0 || y >= s.curve.Side() {
			return false
		}
		for x := ax0; x <= ax1; x++ {
			if !r.cellComplete(x, y, got) {
				return false
			}
		}
		return true
	}
	for {
		grew := false
		if colComplete(x0-1, y0, y1) && cellRect(x0-1, y0, x1, y1).Area() <= maxArea {
			x0--
			grew = true
		}
		if colComplete(x1+1, y0, y1) && cellRect(x0, y0, x1+1, y1).Area() <= maxArea {
			x1++
			grew = true
		}
		if rowComplete(y0-1, x0, x1) && cellRect(x0, y0-1, x1, y1).Area() <= maxArea {
			y0--
			grew = true
		}
		if rowComplete(y1+1, x0, x1) && cellRect(x0, y0, x1, y1+1).Area() <= maxArea {
			y1++
			grew = true
		}
		if !grew {
			break
		}
	}
	return cellRect(x0, y0, x1, y1).Union(seed)
}

// onAirCase is one input to all four kernels.
type onAirCase struct {
	cfg      Config
	pois     []POI
	q        geom.Point
	k        int
	b        Bounds
	start    int64
	windows  []geom.Rect
	seed     geom.Rect
	maxArea  float64
	retrieve uint64 // packet seq is in GrowCompleteRect's retrieved list iff bit seq%64 is set
}

// decodeOnAir reads a fuzz input as a schedule over the area [0,16]² and a
// query against it, every coordinate a multiple of ½ so that MaxDist ties,
// POIs on cell edges and several POIs in one spot are the norm. Twelve
// header bytes: ordering (mod 3), curve order (1–3), packet capacity (1–4),
// flags (bit 0 tree index, bit 1 a 30 % lossy channel seeded by the other
// bits), index entries per slot (1–4, low nibble) and m (1–4, high
// nibble), q (two bytes, −6 … 15½: outside the area too), a selector for k
// among {−1, 0, 1, total−1, total, total+1, 3, 5}, the upper and lower
// bound (0 … 11½, 0 = none), the start slot, the POI count (mod 40). Then
// two position bytes per POI (ids 0, 1, …); a window count (mod 5) and
// four corner bytes per window, taken raw (−1 … 16½, so inverted and
// zero-area windows occur); four bytes of seed rectangle (normalised), one
// of area cap (× 2) and eight of retrieved-packet mask.
func decodeOnAir(b []byte) onAirCase {
	take := func(n int) []byte {
		if len(b) < n {
			b = append(b[:len(b):len(b)], make([]byte, n-len(b))...) // zero-pad a copy
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	half := func(v byte, mod, off int) float64 { return float64(int(v)%mod-off) / 2 }
	h := take(12)
	c := onAirCase{
		cfg: Config{
			Area: geom.NewRect(0, 0, 16, 16), Ordering: Ordering(h[0] % 3), Order: 1 + int(h[1]%3),
			PacketCapacity: 1 + int(h[2]%4), TreeIndex: h[3]&1 != 0,
			IndexEntriesPerSlot: 1 + int(h[4]&15)%4, M: 1 + int(h[4]>>4)%4,
		},
		q:     geom.Pt(half(h[5], 44, 12), half(h[6], 44, 12)),
		b:     Bounds{Upper: half(h[8], 24, 0), Lower: half(h[9], 24, 0)},
		start: int64(h[10]) * 3,
	}
	if h[3]&2 != 0 {
		c.cfg.LossRate, c.cfg.LossSeed = 0.3, int64(h[3]>>2)
	}
	total := int(h[11] % 40)
	for i := 0; i < total; i++ {
		p := take(2)
		c.pois = append(c.pois, POI{ID: int64(i), Pos: geom.Pt(half(p[0], 33, 0), half(p[1], 33, 0))})
	}
	c.k = []int{-1, 0, 1, total - 1, total, total + 1, 3, 5}[h[7]%8]
	for n := int(take(1)[0] % 5); n > 0; n-- {
		w := take(4)
		c.windows = append(c.windows, geom.Rect{
			Min: geom.Pt(half(w[0], 36, 2), half(w[1], 36, 2)),
			Max: geom.Pt(half(w[2], 36, 2), half(w[3], 36, 2)),
		})
	}
	t := take(13)
	c.seed = geom.NewRect(half(t[0], 36, 2), half(t[1], 36, 2), half(t[2], 36, 2), half(t[3], 36, 2))
	c.maxArea = float64(t[4]) * 2
	for i, v := range t[5:] {
		c.retrieve |= uint64(v) << (8 * i)
	}
	return c
}

// dirtyScratch is the one scratch every kernel check runs on.
var dirtyScratch Scratch

func samePOIs(a, b []POI) bool { return slices.Equal(a, b) } // nil and empty alike

// pair builds the reference's schedule and the kernel's from one Config.
func (c onAirCase) pair(t *testing.T) (*refClient, *Schedule) {
	t.Helper()
	return newRefClient(mustSchedule(t, c.pois, c.cfg)), mustSchedule(t, c.pois, c.cfg)
}

// sameStream fails unless both schedules' loss streams stand at the same
// draw.
func sameStream(t *testing.T, ref *refClient, s *Schedule) {
	t.Helper()
	if a, b := ref.s.lossRng.Int63(), s.lossRng.Int63(); a != b {
		t.Fatalf("loss streams diverged: next draw %d (reference) vs %d", a, b)
	}
}

func checkSearchRadius(t *testing.T, c onAirCase) {
	t.Helper()
	ref, s := c.pair(t)
	for _, k := range []int{c.k, -1, 0, 1, len(c.pois) - 1, len(c.pois), len(c.pois) + 1} {
		want := 0.0
		if len(s.packets) > 0 || k >= 0 {
			want = ref.searchRadius(c.q, k)
		}
		if got := s.searchRadius(&dirtyScratch, c.q, k); got != want {
			t.Fatalf("searchRadius(%v, %d) = %v, reference %v", c.q, k, got, want)
		}
		if got := s.SearchRadius(c.q, k); got != want {
			t.Fatalf("SearchRadius(%v, %d) = %v, reference %v", c.q, k, got, want)
		}
	}
}

func checkKNN(t *testing.T, c onAirCase) {
	t.Helper()
	ref, s := c.pair(t)
	for _, b := range []Bounds{c.b, {}} {
		want, wantAcc := ref.knnWithBounds(c.q, c.k, c.start, b)
		wantRadius := b.Upper
		if wantRadius <= 0 && (len(s.packets) > 0 || c.k >= 0) {
			wantRadius = ref.searchRadius(c.q, c.k)
		}
		got, radius, acc := s.KNNScratch(&dirtyScratch, c.q, c.k, c.start, b)
		if acc != wantAcc || radius != wantRadius || !samePOIs(got, want) {
			t.Fatalf("KNNScratch(%v, k=%d, %+v):\n got %v radius %v %+v\nwant %v radius %v %+v",
				c.q, c.k, b, got, radius, acc, want, wantRadius, wantAcc)
		}
		sameStream(t, ref, s)
	}
}

func checkWindow(t *testing.T, c onAirCase) {
	t.Helper()
	ref, s := c.pair(t)
	wantF, wantRaw, wantSeqs, wantAcc := ref.windowReducedDetailed(c.windows, c.start)
	gotF, gotRaw, gotSeqs, acc := s.WindowReducedDetailed(&dirtyScratch, c.windows, c.start)
	if acc != wantAcc || !samePOIs(gotF, wantF) || !samePOIs(gotRaw, wantRaw) || !slices.Equal(gotSeqs, wantSeqs) {
		t.Fatalf("WindowReducedDetailed(%v):\n got %v of %v from %v %+v\nwant %v of %v from %v %+v",
			c.windows, gotF, gotRaw, gotSeqs, acc, wantF, wantRaw, wantSeqs, wantAcc)
	}
	sameStream(t, ref, s)
}

func checkGrow(t *testing.T, c onAirCase) {
	t.Helper()
	ref, s := c.pair(t)
	var retrieved []int
	for seq := range s.packets {
		if c.retrieve>>(seq%64)&1 != 0 {
			retrieved = append(retrieved, seq)
		}
	}
	// What the window client retrieved is the list SBWQ passes.
	_, _, fromWindows, _ := ref.windowReducedDetailed(c.windows, c.start)
	for _, seqs := range [][]int{retrieved, fromWindows, nil} {
		for _, seed := range append([]geom.Rect{c.seed}, c.windows...) {
			want := ref.growCompleteRect(seed, seqs, c.maxArea)
			if grown := s.GrowCompleteRect(&dirtyScratch, seed, seqs, c.maxArea); grown != want {
				t.Fatalf("GrowCompleteRect(%v, %v, %v) = %v, reference %v", seed, seqs, c.maxArea, grown, want)
			}
		}
	}
}

// onAirSeeds are the named degenerate inputs; the fuzz targets' shared
// committed corpus (testdata/fuzz/onair) repeats them.
var onAirSeeds = []struct {
	name string
	in   []byte
}{
	{"empty-schedule", []byte{0, 2, 3, 0, 3, 20, 20, 0, 0, 0, 1, 0, 1, 10, 10, 20, 20, 10, 10, 20, 20, 9, 255}},
	{"single-poi", []byte{0, 2, 3, 0, 3, 20, 20, 2, 0, 0, 1, 1, 16, 16, 1, 0, 0, 35, 35, 14, 14, 18, 18, 255, 1}},
	{"oversized-single-cell-packet", []byte{0, 1, 1, 0, 0, 13, 13, 6, 0, 0, 2, 6,
		2, 2, 2, 2, 3, 3, 3, 2, 2, 3, 1, 1, 1, 2, 2, 8, 8, 4, 4, 6, 6, 40, 1}},
	{"maxdist-ties-q-at-centre", []byte{0, 1, 0, 0, 1, 28, 28, 3, 0, 0, 0, 4,
		12, 12, 20, 12, 12, 20, 20, 20, 1, 16, 16, 20, 20, 16, 16, 20, 20, 255, 5}},
	{"q-outside-area", []byte{1, 2, 2, 0, 2, 0, 43, 6, 0, 0, 5, 8,
		0, 0, 32, 32, 0, 32, 32, 0, 16, 16, 5, 9, 20, 3, 7, 7, 2, 0, 0, 6, 6, 0, 0, 6, 6, 50, 3}},
	{"k-total-minus-one", []byte{2, 2, 1, 0, 17, 22, 18, 3, 0, 0, 7, 5, 1, 1, 9, 9, 17, 3, 25, 30, 30, 25}},
	{"k-total-plus-one", []byte{2, 2, 1, 0, 17, 22, 18, 5, 0, 0, 7, 5, 1, 1, 9, 9, 17, 3, 25, 30, 30, 25}},
	{"k-negative", []byte{0, 2, 1, 0, 17, 22, 18, 0, 0, 0, 7, 5, 1, 1, 9, 9, 17, 3, 25, 30, 30, 25}},
	{"upper-and-lower-bound", []byte{0, 2, 1, 0, 3, 28, 28, 7, 12, 6, 4, 10,
		12, 12, 13, 12, 12, 13, 20, 20, 16, 17, 17, 16, 2, 2, 30, 30, 2, 30, 30, 2, 0}},
	{"lossy-channel-tree-index", []byte{0, 2, 1, 43, 0, 28, 28, 7, 0, 0, 9, 10,
		12, 12, 13, 12, 12, 13, 20, 20, 16, 17, 17, 16, 2, 2, 30, 30, 2, 30, 30, 2,
		2, 10, 10, 30, 30, 0, 0, 8, 8, 10, 10, 30, 30, 100, 255, 255}},
	{"morton-lossy", []byte{1, 2, 2, 14, 33, 10, 30, 6, 0, 0, 3, 10,
		1, 1, 5, 5, 9, 9, 13, 13, 17, 17, 21, 21, 25, 25, 29, 29, 3, 29, 29, 3, 1, 2, 2, 34, 34}},
	{"row-major-tree-index", []byte{2, 2, 2, 1, 16, 10, 30, 6, 0, 0, 3, 10,
		1, 1, 5, 5, 9, 9, 13, 13, 17, 17, 21, 21, 25, 25, 29, 29, 3, 29, 29, 3, 1, 2, 2, 34, 34}},
	{"no-windows", []byte{0, 2, 1, 0, 3, 20, 20, 2, 0, 0, 0, 3, 4, 4, 16, 16, 28, 28, 0}},
	{"zero-area-and-inverted-windows", []byte{0, 2, 1, 0, 3, 20, 20, 2, 0, 0, 0, 3, 4, 4, 16, 16, 28, 28,
		3, 6, 6, 6, 30, 18, 18, 18, 18, 30, 30, 4, 4}},
	{"grow-over-unretrieved-cell", []byte{0, 2, 1, 0, 3, 20, 20, 2, 0, 0, 0, 3, 4, 4, 16, 16, 28, 28,
		0, 16, 16, 20, 20, 200, 0}},
	{"grow-to-the-area-edge", []byte{0, 1, 3, 0, 3, 20, 20, 2, 0, 0, 0, 2, 4, 4, 28, 28,
		0, 16, 16, 20, 20, 255, 255}},
	{"grow-seed-beyond-the-area", []byte{0, 2, 3, 0, 3, 20, 20, 2, 0, 0, 0, 2, 4, 4, 28, 28,
		0, 0, 0, 35, 35, 255, 255}},
}

// checkOnAir runs one input through all four kernels.
func checkOnAir(t *testing.T, c onAirCase) {
	checkSearchRadius(t, c)
	checkKNN(t, c)
	checkWindow(t, c)
	checkGrow(t, c)
}

// Every kernel on the named inputs and on random ones, and once with the
// stamp counter about to wrap.
func TestOnAirKernelsMatchReference(t *testing.T) {
	for _, seed := range onAirSeeds {
		t.Run(seed.name, func(t *testing.T) { checkOnAir(t, decodeOnAir(seed.in)) })
	}
	dirtyScratch.mark = math.MaxUint32 - 2
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, 128)
	for i := 0; i < 4000; i++ {
		rng.Read(buf)
		checkOnAir(t, decodeOnAir(buf[:rng.Intn(len(buf)+1)]))
	}
}

// One fuzz target per kernel. They share one corpus: each
// testdata/fuzz/Fuzz* directory is a symlink to testdata/fuzz/onair.
func fuzzOnAir(f *testing.F, check func(*testing.T, onAirCase)) {
	f.Fuzz(func(t *testing.T, b []byte) { check(t, decodeOnAir(b)) })
}

func FuzzSearchRadius(f *testing.F)     { fuzzOnAir(f, checkSearchRadius) }
func FuzzKNNScratch(f *testing.F)       { fuzzOnAir(f, checkKNN) }
func FuzzWindowClient(f *testing.F)     { fuzzOnAir(f, checkWindow) }
func FuzzGrowCompleteRect(f *testing.F) { fuzzOnAir(f, checkGrow) }

// A retrieval holds no POI twice, whatever the ordering: a cell is in one
// packet and the client lists a packet once. SBWQ's grown-region inventory
// rests on it (it is the raw download, not de-duplicated).
func TestRetrievalHoldsNoPOITwice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sc Scratch
	for _, ord := range []Ordering{OrderingHilbert, OrderingMorton, OrderingRowMajor} {
		cfg := testConfig()
		cfg.Ordering = ord
		s := mustSchedule(t, randomPOIs(rng, 500, 64), cfg)
		seen := map[int64]bool{}
		once := func(pois []POI) {
			t.Helper()
			clear(seen)
			for _, p := range pois {
				if seen[p.ID] {
					t.Fatalf("%v: POI %d downloaded twice", ord, p.ID)
				}
				seen[p.ID] = true
			}
		}
		for trial := 0; trial < 200; trial++ {
			// Overlapping and repeated windows: a packet two windows hit
			// is still downloaded once.
			cx, cy := rng.Float64()*56, rng.Float64()*56
			w := geom.NewRect(cx, cy, cx+rng.Float64()*16, cy+rng.Float64()*16)
			windows := []geom.Rect{w, geom.RectAround(w.Center(), 3), w}
			_, raw, retrieved, _ := s.WindowReducedDetailed(&sc, windows, int64(trial))
			once(raw)
			if !slices.IsSorted(retrieved) || len(slices.Compact(slices.Clone(retrieved))) != len(retrieved) {
				t.Fatalf("%v: retrieved %v not strictly ascending", ord, retrieved)
			}
			got, _, _ := s.KNNScratch(&sc, w.Center(), 1+rng.Intn(12), int64(trial), Bounds{})
			once(got)
		}
	}
}
