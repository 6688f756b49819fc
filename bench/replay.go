package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/p2p"
	"lbsq/internal/rtree"
	"lbsq/internal/sim"
	"lbsq/internal/trust"
	"lbsq/internal/wire"
)

// The layer replay re-runs the plain (zero-knob) query path of a world
// from outside the simulator: same Params, same POI database and
// broadcast schedule, its own hosts, caches and neighbor grid, composed
// only of exported calls — one span around each. It is how the traced
// run splits a query's host time by layer without spans inside the
// program. It follows sim.World.Step / runKNNQuery / runWindowQuery
// closely but draws from its own stream, so its trajectory is a sibling
// of the real run's, not a copy: it is valid when every exact answer
// matches brute force and its shared share lands within
// replayTolerancePts of the real run's.

const (
	// replaySeedSalt decorrelates the replay's stream from the world's.
	replaySeedSalt = 0x7265706c // "repl"
	// replayTolerancePts is how far (percentage points) the replay's
	// shared_pct may sit from the real run's.
	replayTolerancePts = 5.0
	// shadowAuditRate arms the shadow trust engine like the armed
	// workloads do.
	shadowAuditRate = 0.1
)

type replayHost struct {
	mob   mobility.State
	cache *cache.Cache
}

// replayer is the replay's world.
type replayer struct {
	p      sim.Params
	db     []broadcast.POI
	sched  *broadcast.Schedule
	truth  *rtree.Tree
	rng    *rand.Rand
	area   geom.Rect
	lambda float64
	tx     float64
	net    *p2p.Network
	model  *mobility.Waypoint
	hosts  []replayHost
	engine *trust.Engine
	rec    *recorder
	// tamper, when set, alters an exact answer before it is checked —
	// the test hook that shows the validity check can fail.
	tamper func([]broadcast.POI) []broadcast.POI

	now     float64
	counted bool
	tick    int // span index of the current tick
	ids     []int
	peers   []core.PeerData
	owners  []int
	scratch core.Scratch
	shadow  geom.RectUnion
	regs    []wire.Region
	contrib []trust.Contribution
	dists   []float64

	out replayOutcome
}

// replayOutcome is what the replay reports beside its spans.
type replayOutcome struct {
	Queries    int
	Shared     int // verified + approximate
	Checked    int // exact answers compared with brute force
	Mismatches int
	Ticks      int
	Hosts      int
	FirstBad   string
}

func (o replayOutcome) sharedPct() float64 {
	return 100 * ratio(float64(o.Shared), float64(o.Queries))
}

// validate applies the replay's validity rule against the real run.
func (o replayOutcome) validate(realSharedPct float64) error {
	if o.Mismatches > 0 {
		return fmt.Errorf("replay: %d of %d exact answers differ from brute force (first: %s)",
			o.Mismatches, o.Checked, o.FirstBad)
	}
	if d := math.Abs(o.sharedPct() - realSharedPct); d > replayTolerancePts {
		return fmt.Errorf("replay: shared_pct %.2f is %.2f points from the real run's %.2f (limit %.0f)",
			o.sharedPct(), d, realSharedPct, replayTolerancePts)
	}
	return nil
}

// newReplayer builds the replay's world. p must have the simulator's
// defaults applied (take it from a built World).
func newReplayer(p sim.Params, db []broadcast.POI, sched *broadcast.Schedule, rec *recorder) (*replayer, error) {
	r := &replayer{p: p, db: db, sched: sched, rec: rec,
		rng:    rand.New(rand.NewSource(p.Seed ^ replaySeedSalt)),
		area:   p.Area(),
		lambda: p.POIDensity(),
		tx:     p.TxRangeMiles(),
	}
	items := make([]rtree.Item, len(db))
	for i, poi := range db {
		items[i] = rtree.Item{ID: poi.ID, Pos: poi.Pos}
	}
	r.truth = rtree.Bulk(items, 16)
	var err error
	if r.net, err = p2p.NewNetwork(r.area, r.tx); err != nil {
		return nil, err
	}
	if r.model, err = mobility.NewWaypoint(r.area, p.MinSpeedMph/3600, p.MaxSpeedMph/3600, p.PauseSec); err != nil {
		return nil, err
	}
	r.engine = trust.NewEngine(p.Seed^replaySeedSalt, trust.Config{AuditRate: shadowAuditRate}, nil)
	r.hosts = make([]replayHost, p.MHNumber)
	for i := range r.hosts {
		r.hosts[i] = replayHost{mob: r.model.Init(r.rng), cache: cache.New(p.CacheSize, p.CachePolicy)}
		r.net.Update(i, r.hosts[i].mob.Pos)
	}
	r.prefill()
	r.out.Hosts = len(r.hosts)
	return r, nil
}

// prefill mirrors sim's warm start: each host's cache gets the results
// of Poisson(PrefillQueriesPerHost) historical queries around it, read
// from ground truth.
func (r *replayer) prefill() {
	radius := r.p.PrefillRadiusMiles
	if radius <= 0 {
		radius = math.Min(7.5, r.p.AreaMiles/2)
	}
	for i := range r.hosts {
		h := &r.hosts[i]
		n := mobility.Poisson(r.rng, r.p.PrefillQueriesPerHost)
		for j := 0; j < n; j++ {
			angle := r.rng.Float64() * 2 * math.Pi
			d := r.rng.Float64() * radius
			center := r.area.Clip(h.mob.Pos.Add(geom.Pt(math.Cos(angle)*d, math.Sin(angle)*d)))
			var region geom.Rect
			if r.p.Kind == sim.WindowQuery {
				a := float64(r.p.CacheSize) / math.Max(r.lambda, 1e-9)
				a *= 0.4 + 0.6*r.rng.Float64()
				win, ok := geom.RectAround(center, math.Sqrt(a)/2).Intersect(r.area)
				if !ok {
					continue
				}
				region = win
			} else {
				nn := r.truth.KNN(center, r.drawK())
				if len(nn) == 0 {
					continue
				}
				rk := nn[len(nn)-1].Pos.Dist(center)
				region = geom.RectAround(center, math.Max(rk, 1e-9))
			}
			h.cache.Insert(cache.Region{Rect: region, POIs: r.poisInRect(region)},
				h.mob.Pos, h.mob.Heading(), 0)
		}
	}
}

func (r *replayer) poisInRect(rect geom.Rect) []broadcast.POI {
	items := r.truth.Window(rect)
	out := make([]broadcast.POI, len(items))
	for i, it := range items {
		out[i] = broadcast.POI{ID: it.ID, Pos: it.Pos}
	}
	return out
}

func (r *replayer) drawK() int {
	if k := mobility.Poisson(r.rng, float64(r.p.K)); k >= 1 {
		return k
	}
	return 1
}

func (r *replayer) slotNow() int64 { return int64(r.now / r.p.SlotSec) }

// span records one replay span of the counted window.
func (r *replayer) span(name spanName, start, end int64, parent, query int) int {
	if !r.counted {
		return -1
	}
	return r.rec.add(name, start, end, parent, query)
}

// run steps the replay through the whole horizon; spans and statistics
// cover the counted window only, like the simulator's.
func (r *replayer) run() replayOutcome {
	dt := r.p.TimeStepSec
	duration := r.p.DurationHours * 3600
	warmup := duration * r.p.WarmupFrac
	rec := r.rec
	root := rec.add(spReplay, rec.now(), 0, -1, -1)
	for r.now < duration {
		r.counted = r.now+dt >= warmup
		tickStart := rec.now()
		r.tick = r.span(spReplayTick, tickStart, 0, root, -1)

		t0 := rec.now()
		for i := range r.hosts {
			r.model.Step(&r.hosts[i].mob, dt, r.rng)
		}
		t1 := rec.now()
		for i := range r.hosts {
			r.net.Update(i, r.hosts[i].mob.Pos)
		}
		t2 := rec.now()
		r.span(spMobilityStep, t0, t1, r.tick, -1)
		r.span(spP2PUpdate, t1, t2, r.tick, -1)
		r.now += dt

		n := mobility.Poisson(r.rng, r.p.QueryRate/60*dt)
		for q := 0; q < n; q++ {
			idx := r.rng.Intn(len(r.hosts))
			if r.p.Kind == sim.WindowQuery {
				r.windowQuery(idx)
			} else {
				r.knnQuery(idx)
			}
		}
		if r.counted {
			rec.spans[r.tick].end = rec.now()
			r.out.Ticks++
		}
	}
	rec.spans[root].end = rec.now()
	return r.out
}

// gather is the peer-collection half of a query: the neighbor lookup and
// every neighbor's cached regions that meet the relevance rectangle.
func (r *replayer) gather(idx int, q geom.Point, relevance geom.Rect, parent, query int) {
	rec := r.rec
	t0 := rec.now()
	r.ids = r.net.AppendNeighbors(r.ids[:0], q, r.tx, idx)
	t1 := rec.now()
	r.peers, r.owners = r.peers[:0], r.owners[:0]
	stamp := int64(r.now)
	for _, id := range r.ids {
		c := r.hosts[id].cache
		for ri, reg := range c.Regions() {
			if !reg.Rect.Intersects(relevance) {
				continue
			}
			c.Touch(ri, stamp)
			r.peers = append(r.peers, core.PeerData{VR: reg.Rect, POIs: reg.POIs})
			r.owners = append(r.owners, id)
		}
	}
	t2 := rec.now()
	r.span(spNeighbors, t0, t1, parent, query)
	r.span(spShare, t1, t2, parent, query)
}

// insert stores a query's gained verified region in the host's cache.
func (r *replayer) insert(h *replayHost, q geom.Point, region geom.Rect, known []broadcast.POI, parent, query int) {
	t0 := r.rec.now()
	if !region.Empty() {
		h.cache.Insert(cache.Region{Rect: region, POIs: known}, q, h.mob.Heading(), int64(r.now))
	}
	r.span(spInsert, t0, r.rec.now(), parent, query)
}

func (r *replayer) knnQuery(idx int) {
	h := &r.hosts[idx]
	q := h.mob.Pos
	k := r.drawK()
	rel := 4 * math.Sqrt(float64(k)/(math.Pi*math.Max(r.lambda, 1e-9)))
	rel = math.Min(math.Max(rel, 2*r.tx), r.p.AreaMiles)
	query := r.out.Queries
	rec := r.rec
	qs := r.span(spReplayQuery, rec.now(), 0, r.tick, query)

	r.gather(idx, q, geom.RectAround(q, rel), qs, query)
	cfg := core.SBNNConfig{K: k, Lambda: r.lambda,
		AcceptApproximate: r.p.AcceptApproximate, MinCorrectness: r.p.MinCorrectness}
	t0 := rec.now()
	res := core.SBNNScratch(&r.scratch, q, r.peers, cfg, r.sched, r.slotNow())
	r.span(spSBNN, t0, rec.now(), qs, query)
	r.insert(h, q, res.KnownRegion, res.Known, qs, query)
	if !r.counted {
		return
	}
	rec.spans[qs].end = rec.now()

	r.out.Queries++
	if res.Outcome != core.OutcomeBroadcast {
		r.out.Shared++
	}
	if res.Outcome != core.OutcomeApproximate {
		r.checkKNN(q, k, res.POIs)
	}

	// Shadow spans: the same inputs once more, layer by layer, off the
	// replayed path's total.
	r.shadowGeometry(q, query)
	if n := len(res.POIs); n > 0 {
		dk := res.POIs[n-1].Pos.Dist(q)
		t0 = rec.now()
		r.shadow.IntersectCircleArea(q, dk)
		r.span(spCircleArea, t0, rec.now(), r.tick, query)
	}
	if res.Outcome == core.OutcomeBroadcast {
		t0 = rec.now()
		r.sched.KNNWithBounds(q, k, r.slotNow(), res.Bounds)
		r.span(spOnAir, t0, rec.now(), r.tick, query)
	}
	r.shadowPeers(query)
}

func (r *replayer) windowQuery(idx int) {
	h := &r.hosts[idx]
	q := h.mob.Pos
	win, ok := r.drawWindow(q)
	if !ok {
		return
	}
	query := r.out.Queries
	rec := r.rec
	qs := r.span(spReplayQuery, rec.now(), 0, r.tick, query)

	r.gather(idx, q, win, qs, query)
	cfg := core.SBWQConfig{MaxKnownArea: 1.5 * float64(r.p.CacheSize) / math.Max(r.lambda, 1e-9)}
	t0 := rec.now()
	res := core.SBWQScratch(&r.scratch, q, win, r.peers, cfg, r.sched, r.slotNow())
	r.span(spSBWQ, t0, rec.now(), qs, query)
	r.insert(h, q, res.KnownRegion, res.Known, qs, query)
	if !r.counted {
		return
	}
	rec.spans[qs].end = rec.now()

	r.out.Queries++
	if res.Outcome == core.OutcomeVerified {
		r.out.Shared++
	}
	r.checkWindow(win, res.POIs)

	r.shadowGeometry(q, query)
	if res.Outcome == core.OutcomeBroadcast {
		t0 = rec.now()
		r.sched.WindowReduced(res.ReducedWindows, r.slotNow())
		r.span(spOnAir, t0, rec.now(), r.tick, query)
	}
	r.shadowPeers(query)
}

// drawWindow mirrors sim's window sampling.
func (r *replayer) drawWindow(q geom.Point) (geom.Rect, bool) {
	side := r.p.WindowSideMiles() * (0.5 + r.rng.Float64())
	if side <= 0 {
		return geom.Rect{}, false
	}
	dist := math.Abs(r.rng.NormFloat64()*r.p.WindowDistMiles/3 + r.p.WindowDistMiles)
	angle := r.rng.Float64() * 2 * math.Pi
	center := r.area.Clip(q.Add(geom.Pt(math.Cos(angle)*dist, math.Sin(angle)*dist)))
	return geom.RectAround(center, side/2).Intersect(r.area)
}

// shadowGeometry rebuilds the merged verified region of the gathered
// peers in a union of its own and asks it the first boundary distance.
func (r *replayer) shadowGeometry(q geom.Point, query int) {
	rec := r.rec
	t0 := rec.now()
	r.shadow.Reset()
	for _, pd := range r.peers {
		r.shadow.Add(pd.VR)
	}
	t1 := rec.now()
	r.shadow.BoundaryDist(q)
	t2 := rec.now()
	r.span(spMVRAdd, t0, t1, r.tick, query)
	r.span(spBoundary, t1, t2, r.tick, query)
}

// shadowPeers runs the gathered contributions through the wire codec
// (one reply per contributing peer) and through a trust screen — the
// layers the plain path skips.
func (r *replayer) shadowPeers(query int) {
	rec := r.rec
	for lo := 0; lo < len(r.peers); {
		hi := lo
		r.regs = r.regs[:0]
		for hi < len(r.peers) && r.owners[hi] == r.owners[lo] {
			r.regs = append(r.regs, wire.Region{Rect: r.peers[hi].VR, POIs: r.peers[hi].POIs})
			hi++
		}
		t0 := rec.now()
		if enc, err := wire.EncodeReply(wire.Reply{QueryID: uint64(query), Regions: r.regs}); err == nil {
			_, _ = wire.DecodeReply(enc) // timing only; the codec has its own tests
		}
		r.span(spWire, t0, rec.now(), r.tick, query)
		lo = hi
	}
	if len(r.peers) == 0 {
		return
	}
	r.contrib = r.contrib[:0]
	for i, pd := range r.peers {
		r.contrib = append(r.contrib, trust.Contribution{Peer: r.owners[i], VR: pd.VR, POIs: pd.POIs})
	}
	t0 := rec.now()
	r.engine.Screen(r.contrib, r.poisInRect, -1)
	r.span(spTrust, t0, rec.now(), r.tick, query)
}

func (r *replayer) bad(format string, args ...any) {
	r.out.Mismatches++
	if r.out.FirstBad == "" {
		r.out.FirstBad = fmt.Sprintf(format, args...)
	}
}

// checkKNN compares an exact kNN answer with a linear scan of the
// database (rank by rank on distance, like the simulator's self-check).
func (r *replayer) checkKNN(q geom.Point, k int, got []broadcast.POI) {
	if r.tamper != nil {
		got = r.tamper(got)
	}
	r.out.Checked++
	// want holds the k smallest distances seen so far, ascending.
	want := r.dists[:0]
	for _, p := range r.db {
		d := p.Pos.Dist(q)
		if len(want) == k && d >= want[k-1] {
			continue
		}
		if len(want) < k {
			want = append(want, d)
		}
		i := len(want) - 1
		for ; i > 0 && want[i-1] > d; i-- {
			want[i] = want[i-1]
		}
		want[i] = d
	}
	r.dists = want
	if len(got) != len(want) {
		r.bad("kNN at %v k=%d: %d results, want %d", q, k, len(got), len(want))
		return
	}
	for i, d := range want {
		if math.Abs(got[i].Pos.Dist(q)-d) > 1e-9 {
			r.bad("kNN at %v k=%d: rank %d at distance %v, want %v", q, k, i, got[i].Pos.Dist(q), d)
			return
		}
	}
}

// checkWindow compares a window answer with a linear scan: the answer
// names distinct POIs, and they are exactly the database's POIs inside.
func (r *replayer) checkWindow(win geom.Rect, got []broadcast.POI) {
	if r.tamper != nil {
		got = r.tamper(got)
	}
	r.out.Checked++
	answered := make(map[int64]bool, len(got))
	for _, p := range got {
		answered[p.ID] = true
	}
	inside := 0
	for _, p := range r.db {
		if !win.Contains(p.Pos) {
			continue
		}
		inside++
		if !answered[p.ID] {
			r.bad("window %v: POI %d is missing", win, p.ID)
			return
		}
	}
	if inside != len(got) || len(answered) != len(got) {
		r.bad("window %v: %d results (%d distinct), want %d", win, len(got), len(answered), inside)
	}
}

// replayMetrics turns the replay's spans (rec.spans[from:]) into the
// three numbers per span name: median and p90 nanoseconds per call, and
// calls per replayed query.
func replayMetrics(rec *recorder, from int, out replayOutcome, into map[string]float64) {
	var byName [numSpanNames][]float64
	for _, s := range rec.spans[from:] {
		byName[s.name] = append(byName[s.name], float64(s.end-s.start))
	}
	for id := spMobilityStep; id < numSpanNames; id++ {
		name, durs := spanNames[id], byName[id]
		calls := float64(len(durs))
		if id.perTick() {
			for i := range durs {
				durs[i] /= float64(out.Hosts)
			}
			calls *= float64(out.Hosts)
		}
		sort.Float64s(durs)
		into[name+".ns_per_call"] = percentile(durs, 0.5)
		into[name+".ns_p90"] = percentile(durs, 0.9)
		into[name+".calls_per_query"] = ratio(calls, float64(out.Queries))
	}
}
