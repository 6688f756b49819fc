// Package broadcast simulates the wireless data broadcast model of
// Imielinski et al. ("Data on Air: Organization and Access") and the
// on-air spatial query algorithms of Zheng et al. ("Spatial Queries in
// Wireless Broadcast Systems") that the paper builds on.
//
// The base station partitions the service area into Hilbert-curve grid
// cells, packs the POIs of consecutive cells into fixed-capacity data
// packets, and broadcasts the packets cyclically in Hilbert order. An
// index describing every packet (its Hilbert range, region, and POI
// count) is interleaved m times per cycle — the (1, m) indexing scheme of
// Figure 2. Time is measured in slots: one data packet occupies one slot
// and an index segment occupies a number of slots proportional to the
// packet count.
//
// Two cost metrics characterize every access (Section 2.1 of the paper):
//
//   - access latency: slots from the moment the query is posed until the
//     last required packet has been received, and
//   - tuning time: slots the client actively listens (a proxy for power).
package broadcast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lbsq/internal/geom"
	"lbsq/internal/hilbert"
)

// POI is a broadcast point of interest.
type POI struct {
	ID  int64
	Pos geom.Point
}

// POIArena hands out POI slices cut from one backing array that Rewind
// makes reusable (DESIGN.md §9.1). Growing starts a larger array instead
// of moving slices already handed out; those keep the old one alive.
type POIArena struct{ buf []POI }

// Alloc returns n POIs of unspecified content, valid until Rewind.
func (a *POIArena) Alloc(n int) []POI {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]POI, 0, max(2*cap(a.buf), n, 256))
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo+n : lo+n]
}

// Rewind invalidates every slice handed out so far.
func (a *POIArena) Rewind() { a.buf = a.buf[:0] }

// Partition groups pois by owner into one slice cut from the arena,
// input order kept within a group and pois[i] with owner[i] < 0 dropped.
// count[k] holds the number owned by k on entry and the end of k's run
// on return; run k starts where run k-1 ends.
func (a *POIArena) Partition(pois []POI, owner, count []int32) []POI {
	total := int32(0)
	for k, n := range count {
		count[k], total = total, total+n
	}
	out := a.Alloc(int(total))
	for i, k := range owner {
		if k >= 0 {
			out[count[k]] = pois[i]
			count[k]++
		}
	}
	return out
}

// Packet is one broadcast data bucket: the POIs of a run of consecutive
// Hilbert cells.
type Packet struct {
	Seq    int       // position in the data file, 0-based
	First  int64     // first Hilbert cell value covered
	Last   int64     // last Hilbert cell value covered
	Region geom.Rect // MBR of the covered cells
	POIs   []POI
}

// Ordering selects the space-filling order in which grid cells are
// broadcast. The paper follows Zheng et al. in using the Hilbert curve
// for its superior locality (Jagadish); the alternatives exist for the
// locality ablation.
type Ordering int

const (
	// OrderingHilbert broadcasts cells in Hilbert-curve order (default).
	OrderingHilbert Ordering = iota
	// OrderingMorton broadcasts cells in Z-order (linear quadtree order).
	OrderingMorton
	// OrderingRowMajor broadcasts cells row by row (no locality across
	// rows) — the naive baseline.
	OrderingRowMajor
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case OrderingMorton:
		return "morton"
	case OrderingRowMajor:
		return "row-major"
	default:
		return "hilbert"
	}
}

// Config parameterizes a broadcast schedule.
type Config struct {
	// Area is the service area covered by the broadcast.
	Area geom.Rect
	// Order is the Hilbert curve order (grid is 2^Order per axis).
	// Defaults to 6 (a 64×64 grid) when zero.
	Order int
	// Ordering selects the cell broadcast order (default Hilbert).
	Ordering Ordering
	// PacketCapacity is the maximum POIs per data packet. Defaults to 8.
	PacketCapacity int
	// M is the index replication factor of the (1, m) scheme. Defaults
	// to 4.
	M int
	// IndexEntriesPerSlot controls how many packet descriptors fit in one
	// index slot. Defaults to 16.
	IndexEntriesPerSlot int
	// TreeIndex models a tree-structured air index (a directory slot
	// pointing at leaf index slots): clients selectively tune only the
	// index slots describing their candidate packets instead of the whole
	// segment, reducing tuning time (power) without changing latency.
	// The flat default reads the full segment, as the (1, m) scheme of
	// Figure 2 implies.
	TreeIndex bool
	// LossRate is the probability that a reception fails — the wireless
	// error model. A lost data packet defers the client to the packet's
	// next cycle occurrence; a lost index segment defers it to the next
	// (1, m) index replica. Zero (default) is a lossless channel; values
	// are clamped to [0, 0.95].
	LossRate float64
	// LossSeed seeds the reception-loss process.
	LossSeed int64
}

// MaxIRReplicaWaits bounds the ListenIR replica wait: after this many
// consecutive lost IR copies the client gives up and reports the listen
// abandoned instead of spinning. Sixteen waits make an accidental
// abandonment negligible at any legal Bernoulli loss rate (0.2^16 ≈
// 7e-12 per listen at 20% broadcast loss) while keeping the wait finite
// under a 100%-loss blackout.
const MaxIRReplicaWaits = 16

func (c *Config) applyDefaults() {
	if c.Order == 0 {
		c.Order = 6
	}
	if c.PacketCapacity == 0 {
		c.PacketCapacity = 8
	}
	if c.M == 0 {
		c.M = 4
	}
	if c.IndexEntriesPerSlot == 0 {
		c.IndexEntriesPerSlot = 16
	}
}

// Schedule is one full broadcast cycle: m interleavings of (index segment,
// data chunk).
type Schedule struct {
	curve          *hilbert.Curve
	packets        []Packet
	m              int
	indexSlots     int
	cycleLen       int64
	indexStarts    []int64 // slot offsets of the index segments within a cycle
	packetSlot     []int64 // slot offset of each packet within a cycle
	totalPOIs      int
	cellPacket     []int32 // grid cell y*side+x -> packet seq, -1 for an empty cell
	ordering       Ordering
	lossRate       float64
	lossRng        *rand.Rand
	treeIndex      bool
	entriesPerSlot int
}

// cellKeyFunc returns the broadcast-order key of a grid cell for the
// selected ordering.
func cellKeyFunc(ord Ordering, curve *hilbert.Curve) func(x, y int) int64 {
	side := int64(curve.Side())
	switch ord {
	case OrderingMorton:
		return func(x, y int) int64 { return interleaveBits(int64(x)) | interleaveBits(int64(y))<<1 }
	case OrderingRowMajor:
		return func(x, y int) int64 { return int64(y)*side + int64(x) }
	default:
		return curve.D
	}
}

// interleaveBits spreads the low 32 bits of v into the even bit
// positions (Morton interleaving).
func interleaveBits(v int64) int64 {
	v &= 0x00000000FFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Access records the cost of one on-air retrieval.
type Access struct {
	// Latency is the number of slots from the query instant until the
	// last required packet was received. Zero when nothing had to be
	// retrieved from the channel.
	Latency int64
	// Tuning is the number of slots the client actively listened.
	Tuning int64
	// PacketsRead is how many data packets the client downloaded.
	PacketsRead int
	// PacketsSkipped is how many candidate packets were filtered out by
	// SBNN/SBWQ search bounds before retrieval.
	PacketsSkipped int
	// IndexReads counts index segments read (the initial probe).
	IndexReads int
	// Retransmissions counts packet receptions lost to channel errors
	// (the client waited a further cycle for each).
	Retransmissions int
	// IndexRetries counts index-segment receptions lost to channel
	// errors; the client waited for the next (1, m) index replica (or the
	// next cycle when only one remains) for each.
	IndexRetries int
	// Abandoned reports that the client gave up before completing the
	// retrieval: the replica wait hit its bound (MaxIRReplicaWaits lost
	// copies in a row) and the client stopped listening rather than spin
	// on a dead channel. Latency and Tuning still record the slots spent
	// before giving up.
	Abandoned bool
}

// add accumulates another access (used when a query needs two passes).
func (a *Access) add(b Access) {
	a.Latency += b.Latency
	a.Tuning += b.Tuning
	a.PacketsRead += b.PacketsRead
	a.PacketsSkipped += b.PacketsSkipped
	a.IndexReads += b.IndexReads
	a.Retransmissions += b.Retransmissions
	a.IndexRetries += b.IndexRetries
	a.Abandoned = a.Abandoned || b.Abandoned
}

// NewSchedule builds the broadcast cycle for the given POIs.
func NewSchedule(pois []POI, cfg Config) (*Schedule, error) {
	cfg.applyDefaults()
	if cfg.M < 1 {
		return nil, fmt.Errorf("broadcast: m must be >= 1, got %d", cfg.M)
	}
	curve, err := hilbert.New(cfg.Order, cfg.Area)
	if err != nil {
		return nil, err
	}

	// Order POIs along the selected space-filling order and group them by
	// grid cell.
	key := cellKeyFunc(cfg.Ordering, curve)
	type keyed struct {
		d    int64
		x, y int
		poi  POI
	}
	ks := make([]keyed, len(pois))
	for i, p := range pois {
		cx, cy := curve.CellOf(p.Pos)
		ks[i] = keyed{d: key(cx, cy), x: cx, y: cy, poi: p}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].d != ks[j].d {
			return ks[i].d < ks[j].d
		}
		return ks[i].poi.ID < ks[j].poi.ID
	})

	// Pack whole cells into packets: a packet always holds every POI of
	// each cell it covers, so retrieving a packet makes the client a
	// complete authority on those cells (the property the verified-cache
	// machinery builds on). A packet closes when adding the next cell
	// would exceed the capacity; a single cell denser than the capacity
	// becomes one oversized packet.
	var packets []Packet
	i := 0
	for i < len(ks) {
		// Collect the run of POIs sharing the next cell.
		j := i + 1
		for j < len(ks) && ks[j].d == ks[i].d {
			j++
		}
		cellPOIs := make([]POI, 0, j-i)
		for _, e := range ks[i:j] {
			cellPOIs = append(cellPOIs, e.poi)
		}
		cellValue := ks[i].d
		cellRect := curve.CellRect(ks[i].x, ks[i].y)

		if n := len(packets); n > 0 &&
			len(packets[n-1].POIs)+len(cellPOIs) <= cfg.PacketCapacity {
			p := &packets[n-1]
			p.Last = cellValue
			p.Region = p.Region.Union(cellRect)
			p.POIs = append(p.POIs, cellPOIs...)
		} else {
			packets = append(packets, Packet{
				Seq:    len(packets),
				First:  cellValue,
				Last:   cellValue,
				Region: cellRect,
				POIs:   cellPOIs,
			})
		}
		i = j
	}

	s := &Schedule{
		curve:          curve,
		packets:        packets,
		m:              cfg.M,
		totalPOIs:      len(pois),
		cellPacket:     make([]int32, curve.Cells()),
		ordering:       cfg.Ordering,
		lossRate:       math.Min(math.Max(cfg.LossRate, 0), 0.95),
		lossRng:        rand.New(rand.NewSource(cfg.LossSeed)),
		treeIndex:      cfg.TreeIndex,
		entriesPerSlot: cfg.IndexEntriesPerSlot,
	}
	for i := range s.cellPacket {
		s.cellPacket[i] = -1
	}
	for _, p := range packets {
		for _, poi := range p.POIs {
			cx, cy := curve.CellOf(poi.Pos)
			s.cellPacket[cy*curve.Side()+cx] = int32(p.Seq)
		}
	}
	s.indexSlots = (len(packets) + cfg.IndexEntriesPerSlot - 1) / cfg.IndexEntriesPerSlot
	if s.indexSlots == 0 {
		s.indexSlots = 1
	}
	s.layout()
	return s, nil
}

// layout computes the slot positions of the (1, m) cycle: m repetitions of
// [index segment][data chunk].
func (s *Schedule) layout() {
	n := len(s.packets)
	m := s.m
	if m > n && n > 0 {
		m = n // no point replicating the index more often than chunks exist
	}
	if n == 0 {
		m = 1
	}
	chunk := 0
	if m > 0 {
		chunk = (n + m - 1) / m
	}
	s.packetSlot = make([]int64, n)
	s.indexStarts = s.indexStarts[:0]
	pos := int64(0)
	next := 0
	for seg := 0; seg < m; seg++ {
		s.indexStarts = append(s.indexStarts, pos)
		pos += int64(s.indexSlots)
		for i := 0; i < chunk && next < n; i++ {
			s.packetSlot[next] = pos
			pos++
			next++
		}
	}
	s.cycleLen = pos
}

// CycleLength returns the number of slots in one broadcast cycle.
func (s *Schedule) CycleLength() int64 { return s.cycleLen }

// IndexSlots returns the length of one index segment in slots.
func (s *Schedule) IndexSlots() int { return s.indexSlots }

// Packets returns the data packets in broadcast order.
func (s *Schedule) Packets() []Packet { return s.packets }

// TotalPOIs returns the number of POIs in the broadcast file.
func (s *Schedule) TotalPOIs() int { return s.totalPOIs }

// Curve exposes the Hilbert curve organizing the data file.
func (s *Schedule) Curve() *hilbert.Curve { return s.curve }

// M returns the effective index replication factor.
func (s *Schedule) M() int { return len(s.indexStarts) }

// Ordering returns the cell broadcast order in use.
func (s *Schedule) Ordering() Ordering { return s.ordering }

// nextIndexStart returns the first slot >= t at which an index segment
// begins.
func (s *Schedule) nextIndexStart(t int64) int64 {
	phase := mod(t, s.cycleLen)
	base := t - phase
	for _, is := range s.indexStarts {
		if is >= phase {
			return base + is
		}
	}
	return base + s.cycleLen + s.indexStarts[0]
}

// nextPacketArrival returns the first slot >= t at which packet seq is
// fully received (its single-slot transmission completes).
func (s *Schedule) nextPacketArrival(seq int, t int64) int64 {
	slot := s.packetSlot[seq]
	phase := mod(t, s.cycleLen)
	base := t - phase
	if slot >= phase {
		return base + slot
	}
	return base + s.cycleLen + slot
}

func mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// probeIndex models the general access protocol's first two steps: the
// initial probe plus reading one index segment. It returns the slot at
// which the client holds the index and the accumulated access cost. With
// a flat index the whole segment is tuned; with a tree index only the
// directory is tuned here and indexTuning adds the visited leaf slots
// once the candidate set is known.
//
// Under channel errors an index-segment reception can fail like any other
// packet; the client then stays tuned through the wasted segment and
// waits for the next (1, m) index replica — one of m per cycle — before
// it can resolve any packet addresses. Each such wait is counted in
// Access.IndexRetries and widens both latency and tuning time.
func (s *Schedule) probeIndex(start int64) (int64, Access) {
	is := s.nextIndexStart(start)
	segTuning := int64(s.indexSlots) // slots tuned per segment read
	if s.treeIndex {
		segTuning = 1 // directory slot only
	}
	acc := Access{Tuning: 1, IndexReads: 1} // the initial probe
	for s.lossRate > 0 && s.lossRng.Float64() < s.lossRate {
		// Reception failed: the tuned slots are wasted and the client
		// retunes at the next index replica.
		acc.Tuning += segTuning
		acc.IndexRetries++
		is = s.nextIndexStart(is + int64(s.indexSlots))
	}
	acc.Tuning += segTuning
	done := is + int64(s.indexSlots)
	acc.Latency = done - start
	return done, acc
}

// ListenIR models a client tuning in for the invalidation report that
// rides every (1, m) index segment (consistency layer, DESIGN.md §12):
// wait for the next index replica, read the segment, and on reception
// failure stay tuned through the wasted segment and retry at the next
// replica — the same replica-wait discipline as probeIndex. lost is
// consulted once per reception attempt and reports whether that copy of
// the IR was lost on air; nil means a clean channel. The returned access
// carries the latency and tuning cost of the listen; IndexRetries counts
// the lost copies.
//
// Loss draws come from the caller rather than the schedule's own loss
// stream so that IR listening — active only when the consistency layer is
// armed — never perturbs the query path's random sequence.
//
// Unlike probeIndex — whose loss rate is the schedule's own, clamped to
// [0, 0.95] — the caller's loss draws may report 100% sustained loss
// (a blackout, a dead receiver). The replica wait therefore gives up
// after MaxIRReplicaWaits consecutive lost copies: the access comes back
// with Abandoned set and the slots actually spent, and the caller keeps
// its old IR epoch instead of spinning forever on a channel that is not
// delivering.
func (s *Schedule) ListenIR(start int64, lost func() bool) Access {
	is := s.nextIndexStart(start)
	segTuning := int64(s.indexSlots)
	if s.treeIndex {
		segTuning = 1 // the IR rides the directory slot
	}
	acc := Access{Tuning: 1, IndexReads: 1}
	for lost != nil && lost() {
		acc.Tuning += segTuning
		acc.IndexRetries++
		if acc.IndexRetries >= MaxIRReplicaWaits {
			acc.Abandoned = true
			// Latency counts the slots burned up to the last wasted
			// segment; no IR was received.
			acc.Latency = is + int64(s.indexSlots) - start
			return acc
		}
		is = s.nextIndexStart(is + int64(s.indexSlots))
	}
	acc.Tuning += segTuning
	acc.Latency = is + int64(s.indexSlots) - start
	return acc
}

// Scratch holds the transients of one on-air client (DESIGN.md §9.1):
// the slices the scratch-taking query methods return alias it and are
// valid until the next call with the same Scratch. The zero value is
// ready to use; a Scratch must not be shared between goroutines.
type Scratch struct {
	near     []nearPacket // searchRadius: the nearest packets so far, ascending
	need     []int        // candidate packets, ascending by Seq
	pois     []POI        // contents of the downloaded packets, in need order
	filtered []POI        // window client: the pois inside a window
	got      []uint32     // GrowCompleteRect: got[seq] == mark iff seq was retrieved
	mark     uint32
}

// nearPacket is what the index tells searchRadius about one packet.
type nearPacket struct {
	maxDist float64
	count   int
}

// indexTuning returns the extra index slots a tree-index client tunes:
// the distinct leaf slots holding the entries of the candidate packets
// (ascending by Seq, so a leaf's entries are adjacent). Zero for the flat
// index (already fully read by probeIndex).
func (s *Schedule) indexTuning(candidates []int) int64 {
	if !s.treeIndex || s.entriesPerSlot <= 0 {
		return 0
	}
	slots, last := int64(0), -1
	for _, seq := range candidates {
		if slot := seq / s.entriesPerSlot; slot != last {
			slots++
			last = slot
		}
	}
	return slots
}

// retrieve downloads the given packet sequence numbers starting no earlier
// than `from`, returning their POIs (in sc) and the cost. The client
// sleeps between packets (selective tuning), so tuning grows by one slot
// per packet while latency runs to the last arrival.
func (s *Schedule) retrieve(sc *Scratch, seqs []int, from int64) ([]POI, Access) {
	var acc Access
	pois := sc.pois[:0]
	if len(seqs) == 0 {
		return pois, acc
	}
	last := from
	for _, seq := range seqs {
		at := s.nextPacketArrival(seq, from)
		// Channel errors: each failed reception wastes the listening slot
		// and defers the packet to its next cycle occurrence.
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
	sc.pois = pois
	acc.Latency = last - from + 1
	return pois, acc
}

// KNN runs the plain on-air k-nearest-neighbor algorithm (no peer
// knowledge): scan the index to derive a search range guaranteed to hold
// the k nearest POIs, then retrieve every packet intersecting that range.
// start is the absolute slot at which the query is posed.
func (s *Schedule) KNN(q geom.Point, k int, start int64) ([]POI, Access) {
	return s.KNNWithBounds(q, k, start, Bounds{})
}

// Bounds carries the search bounds SBNN derives from the partial result
// heap (Section 3.3.3). Zero value means "no bounds".
type Bounds struct {
	// Upper, when positive, is a proven upper bound on the k-th NN
	// distance (the distance of the last entry of a full heap, state 1
	// and 2). Packets beyond it cannot contribute.
	Upper float64
	// Lower, when positive, is the verified-knowledge radius (distance of
	// the last verified entry, states 1, 3 and 4): every POI within Lower
	// of the query point is already known from peers, so packets entirely
	// inside that circle are skipped.
	Lower float64
}

// KNNWithBounds runs the on-air kNN search with SBNN packet filtering.
// The returned POI set excludes the contents of skipped packets; the
// caller is expected to merge it with the peer-supplied POIs that
// justified the bounds.
func (s *Schedule) KNNWithBounds(q geom.Point, k int, start int64, b Bounds) ([]POI, Access) {
	var sc Scratch
	pois, _, acc := s.KNNScratch(&sc, q, k, start, b)
	return pois, acc
}

// KNNScratch is KNNWithBounds on caller-owned scratch, which the returned
// POIs alias. It also returns the radius of the search range it used —
// b.Upper when positive, else SearchRadius(q, k): the retrieval covered
// every packet intersecting the square of that radius around q.
func (s *Schedule) KNNScratch(sc *Scratch, q geom.Point, k int, start int64, b Bounds) ([]POI, float64, Access) {
	after, acc := s.probeIndex(start)
	radius := b.Upper
	if radius <= 0 {
		radius = s.searchRadius(sc, q, k)
	}
	if k <= 0 || len(s.packets) == 0 {
		return nil, radius, acc
	}
	searchRange := geom.RectAround(q, radius)

	need := sc.need[:0]
	for i := range s.packets {
		p := &s.packets[i]
		if !p.Region.Intersects(searchRange) {
			continue
		}
		// Strictly inside the verified circle: every POI of the packet is
		// nearer than the last verified entry and therefore already known
		// from peers. The comparison is strict so ties at exactly the
		// verified radius are never skipped.
		if b.Lower > 0 && p.Region.MaxDist(q) < b.Lower {
			acc.PacketsSkipped++
			continue
		}
		need = append(need, p.Seq)
	}
	sc.need = need
	acc.Tuning += s.indexTuning(need)
	pois, racc := s.retrieve(sc, need, after)
	acc.add(racc)
	return pois, radius, acc
}

// SearchRadius derives, from index information alone, a radius guaranteed
// to contain at least k POIs: the smallest r such that the packets whose
// regions lie entirely within distance r of q together hold k POIs. This
// models the first index scan of the on-air kNN algorithm; clients use it
// to know which region their retrieval made them an authority on.
func (s *Schedule) SearchRadius(q geom.Point, k int) float64 {
	var sc Scratch
	return s.searchRadius(&sc, q, k)
}

// searchRadius is a weighted order statistic over the packets' MaxDist.
// Cell-granular packing never emits an empty packet, so the k packets
// nearest by MaxDist hold at least k POIs and decide it: one pass keeps
// them in a k-bounded insertion buffer. Which of several packets tied at
// the buffer's edge is kept does not change the value.
func (s *Schedule) searchRadius(sc *Scratch, q geom.Point, k int) float64 {
	if s.totalPOIs <= k {
		// Fewer POIs than requested: the whole file is the answer.
		far := 0.0
		for i := range s.packets {
			far = max(far, s.packets[i].Region.MaxDist(q))
		}
		return far
	}
	limit := max(k, 1)
	near := sc.near[:0]
	for i := range s.packets {
		p := &s.packets[i]
		d := p.Region.MaxDist(q)
		if len(near) < limit {
			near = append(near, nearPacket{})
		} else if d >= near[limit-1].maxDist {
			continue
		}
		j := len(near) - 1
		for ; j > 0 && near[j-1].maxDist > d; j-- {
			near[j] = near[j-1]
		}
		near[j] = nearPacket{maxDist: d, count: len(p.POIs)}
	}
	sc.near = near
	acc := 0
	for _, p := range near {
		acc += p.count
		if acc >= k {
			return p.maxDist
		}
	}
	return 0 // no packets
}

// Window runs the plain on-air window query: retrieve every packet whose
// region intersects w and filter the POIs.
func (s *Schedule) Window(w geom.Rect, start int64) ([]POI, Access) {
	return s.WindowReduced([]geom.Rect{w}, start)
}

// WindowReduced runs the on-air window query over a set of (reduced)
// windows — the w′ rectangles SBWQ computes by subtracting the merged
// verified region from the original window. POIs outside every window are
// filtered out before returning.
func (s *Schedule) WindowReduced(windows []geom.Rect, start int64) ([]POI, Access) {
	var sc Scratch
	out, _, _, acc := s.WindowReducedDetailed(&sc, windows, start)
	return out, acc
}

// WindowReducedDetailed is WindowReduced on caller-owned scratch,
// exposing the full retrieval: the filtered result, the raw contents of
// every downloaded packet, and the downloaded packet sequence numbers
// (ascending), all aliasing sc. SBWQ uses the extra data to turn the
// retrieval into cached verified knowledge (the paper's "store received
// POIs with their collective MBR" cache policy).
func (s *Schedule) WindowReducedDetailed(sc *Scratch, windows []geom.Rect, start int64) (filtered, raw []POI, retrieved []int, acc Access) {
	after, acc := s.probeIndex(start)
	if len(s.packets) == 0 {
		return nil, nil, nil, acc
	}
	need := sc.need[:0]
	for i := range s.packets {
		p := &s.packets[i]
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
	sc.need = need
	acc.Tuning += s.indexTuning(need)
	raw, racc := s.retrieve(sc, need, after)
	acc.add(racc)
	filtered = sc.filtered[:0]
	for _, poi := range raw {
		for _, w := range windows {
			if w.Contains(poi.Pos) {
				filtered = append(filtered, poi)
				break
			}
		}
	}
	sc.filtered = filtered
	return filtered, raw, need, acc
}

// GrowCompleteRect expands the seed rectangle outward, one cell row or
// column at a time, for as long as every newly covered cell is complete
// under the retrieved packet set — the cell is empty, or its (unique, by
// cell-granular packing) packet was downloaded — and the area stays
// within maxArea. It returns the grown cell-aligned rectangle, or the seed
// unchanged when even the seed's own cells are not all complete. The
// result is the largest sound "collective MBR" a client may cache after a
// window retrieval.
func (s *Schedule) GrowCompleteRect(sc *Scratch, seed geom.Rect, retrieved []int, maxArea float64) geom.Rect {
	if seed.Empty() {
		return seed
	}
	// Stamp the retrieved packets: a new mark per call leaves every older
	// stamp, of this schedule or another, reading as not retrieved.
	if len(sc.got) < len(s.packets) {
		sc.got = make([]uint32, len(s.packets))
	}
	sc.mark++
	if sc.mark == 0 {
		clear(sc.got)
		sc.mark = 1
	}
	got, mark := sc.got, sc.mark
	for _, seq := range retrieved {
		got[seq] = mark
	}
	side := s.curve.Side()
	complete := func(x, y int) bool {
		seq := s.cellPacket[y*side+x]
		return seq < 0 || got[seq] == mark
	}
	x0, y0 := s.curve.CellOf(seed.Min)
	x1, y1 := s.curve.CellOf(seed.Max)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if !complete(x, y) {
				return seed
			}
		}
	}
	cellRect := func(ax0, ay0, ax1, ay1 int) geom.Rect {
		return s.curve.CellRect(ax0, ay0).Union(s.curve.CellRect(ax1, ay1))
	}
	colComplete := func(x, ay0, ay1 int) bool {
		if x < 0 || x >= side {
			return false
		}
		for y := ay0; y <= ay1; y++ {
			if !complete(x, y) {
				return false
			}
		}
		return true
	}
	rowComplete := func(y, ax0, ax1 int) bool {
		if y < 0 || y >= side {
			return false
		}
		for x := ax0; x <= ax1; x++ {
			if !complete(x, y) {
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
	grown := cellRect(x0, y0, x1, y1)
	// The grown rect always contains the (cell-aligned bounding box of
	// the) seed; return the union with the seed for exact containment.
	return grown.Union(seed)
}

// ExpectedKNNLatency estimates the mean on-air kNN latency by averaging
// over every possible starting phase of the cycle. It is used by the
// analytical model and the latency experiment.
func (s *Schedule) ExpectedKNNLatency(q geom.Point, k int, samples int) float64 {
	if samples <= 0 {
		samples = 16
	}
	total := 0.0
	for i := 0; i < samples; i++ {
		start := int64(math.Round(float64(i) / float64(samples) * float64(s.cycleLen)))
		_, acc := s.KNN(q, k, start)
		total += float64(acc.Latency)
	}
	return total / float64(samples)
}
