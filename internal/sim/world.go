package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/p2p"
	"lbsq/internal/rtree"
	"lbsq/internal/trace"
	"lbsq/internal/trust"
	"lbsq/internal/wire"
)

// faultSeedSalt decorrelates the fault-injection stream from the
// simulation stream: both derive from Params.Seed, but the injector never
// shares draws with the world, so enabling faults does not perturb
// movement, query launching, or the POI field.
const faultSeedSalt = 0x6661756c74 // "fault"

// byzSeedSalt seeds the one-shot byzantine host assignment and
// trustSeedSalt the trust engine's audit-sampling stream. Both are
// decorrelated from the world and fault streams for the same reason as
// faultSeedSalt: arming either knob must not perturb movement, query
// launching, the POI field, or the fault draws.
const (
	byzSeedSalt   = 0x62797a61 // "byza"
	trustSeedSalt = 0x74727573 // "trus"
)

// contSeedSalt seeds the continuous-query registration stream
// (internal/sim continuous layer): which hosts register standing
// subscriptions, and each subscription's k or window shape. Decorrelated
// from every other stream so arming the ContinuousRate knob never
// perturbs movement, one-shot query launching, the POI field, or the
// fault draws. Subscription re-verification itself draws nothing — the
// shape is fixed at registration — so the maintenance phase consumes no
// randomness at all.
const contSeedSalt = 0x636f6e74 // "cont"

// World is one simulation instance: the POI database and its broadcast
// schedule, the mobile host population, and the sharing layer.
type World struct {
	// Params is the active configuration (defaults applied).
	Params Params
	// CompareBaseline, when set, additionally prices a sample of queries
	// with the plain on-air algorithms (no sharing) for the latency
	// experiments.
	CompareBaseline bool
	// BaselineSampleRate is the fraction of queries priced against the
	// baseline (default 0.2 when CompareBaseline is set).
	BaselineSampleRate float64
	// SelfCheck, when set, verifies every exact query result against the
	// R-tree ground truth and records the first mismatch.
	SelfCheck bool
	// Trace, when non-nil, receives one event per counted query (JSONL).
	Trace *trace.Writer

	rng     *rand.Rand
	area    geom.Rect
	types   []typeState
	net     *p2p.Network
	model   *mobility.Waypoint
	inj     *faults.Injector
	queryID uint64 // wire correlation IDs for encoded replies

	// Per-host state, one array per field indexed by host id: mob[i] is
	// host i's motion, caches[ti][i] its cache of POI type ti (Table 4:
	// CSize per type), by value so serving a peer reads its bounds in one load.
	mob    []mobility.State
	caches [][]cache.Cache

	// breakers is nil unless BreakerThreshold is set.
	breakers *p2p.BreakerSet

	// blackout is the per-host deep-fade schedule of the broadcast
	// downlink (nil unless the blackout knobs are set — no draws, no
	// branch costs then). planner arms the degraded-mode fallback ladder;
	// chanDown tracks each host's last observed downlink state so
	// reacquisitions are countable (allocated only when blackout is
	// armed). chanArmed gates the availability accounting
	// (AnsweredInBudget) to channel-impaired runs so zero-knob stats stay
	// byte-identical.
	blackout  *faults.Blackout
	planner   bool
	chanDown  []bool
	chanArmed bool

	// byzAttack is the per-host byzantine assignment (AttackNone for
	// honest hosts), drawn once at world construction from a dedicated
	// seeded stream. Nil when Faults.ByzantineRate is zero — no draws, no
	// branch costs on the honest path.
	byzAttack []faults.Attack
	// tr is the trust engine (nil unless Params.AuditRate > 0). It models
	// the reputation state the hosts share through their ordinary P2P
	// exchanges — one engine per world, the same simplification the
	// breaker set makes.
	tr *trust.Engine
	// auditOracle is the ground-truth oracle handed to every screen,
	// bound once (a closure per query would escape through the Oracle
	// value); it reads the POI type from auditType, which trustScreen
	// sets before each call.
	auditOracle trust.Oracle
	auditType   int

	// mx is the observability layer (nil unless Params.Metrics): the
	// per-world registry, phase-span scratch, and instrument handles.
	// Observation is allocation-free and draws no randomness, so the
	// simulation trajectory is identical with or without it.
	mx *worldMetrics

	// cons is the consistency layer (nil unless Params.UpdateRate > 0):
	// the POI-update process, the per-type epoch state, and the on-air
	// invalidation-report frames (DESIGN.md §12).
	cons *consState

	// cont is the continuous-query layer (nil unless
	// Params.ContinuousRate > 0): the standing subscription registry and
	// its dedicated registration stream (DESIGN.md §15). Nil means zero
	// draws and zero branch costs — the zero-knob world is bit-identical
	// to the pre-continuous build.
	cont *contState

	// ovl is the flash-crowd and overload-control plane (overload.go,
	// DESIGN.md §16): the seeded crowd generator, peer service queues,
	// admission buckets, the retry budget, the load governor, and the
	// coalescing donor table. Nil unless a crowd or overload knob is
	// armed — the zero-knob world makes zero extra draws and stays
	// bit-identical to the pre-overload build.
	ovl *overloadState

	nowSec      float64
	durationSec float64
	warmupSec   float64

	// qs is the World-owned query scratch: every per-query buffer of the
	// hot path (neighbor IDs, heard lists, PeerData collection, retry
	// targets, reply staging, and the core algorithm scratch) lives here
	// and is reused across queries. Queries within one World run strictly
	// sequentially, so no synchronization is needed; parallel sweeps give
	// every cell its own World and therefore its own scratch.
	qs queryScratch

	stats        Stats
	selfCheckErr error

	// commitHook, when set, sees every one-shot query in commit before its
	// knowledge is cached. Only tests set it (TestCollectionComplete).
	commitHook func(*query)
}

// origin is where one collected peers entry came from: the contributing
// host (trust.Self for the own cache), the epoch the host's copy was
// verified at, whether the entry is a piece cache.ReconcileRegion cut out
// of that host's superseded claim rather than a claim as the host made it
// — the trust screen never audits a piece (DESIGN.md §11.2) — and whether
// it lies beyond the query's reach cut (audited at most, DESIGN.md §9.3).
type origin struct {
	peer     int
	epoch    int64
	repaired bool
	far      bool
}

// collection is a query's collected regions with where each came from,
// side by side.
type collection struct {
	peers []core.PeerData
	from  []origin
}

func (c *collection) reset() { c.peers, c.from = c.peers[:0], c.from[:0] }

func (c *collection) add(pd core.PeerData, o origin) {
	c.peers = append(c.peers, pd)
	c.from = append(c.from, o)
}

// queryScratch holds the per-World reusable buffers of the query path.
// Aliasing contract: core.PeerData entries alias live cache storage for
// the duration of one query only, and the core algorithms copy every
// candidate before returning (see core.PeerData); all other buffers are
// consumed before the query completes.
type queryScratch struct {
	ids   []int // neighbor lookup buffer
	heard []int // per-round indexes into targets of the peers that heard
	// col is the collection: staged by gather, rewritten by admit through
	// next (the two swap), read by the trust screen.
	col, next collection
	claims    []core.PeerData      // the reach cut's candidate regions
	keep      []bool               // the reach cut's verdict per staged entry
	targets   []collectTarget      // per-peer collection state
	shared    []cache.Region       // receiveReply staging
	regs      []wire.Region        // wire-encoding staging (damaged-reply path)
	contribs  []trust.Contribution // trust-screen staging
	screened  []core.PeerData      // trust-screened PeerData
	core      core.Scratch         // NNV/SBNN/SBWQ hot-path scratch
	repair    cache.RepairScratch  // IR repair transients (admitShared, syncIR)
	items     []rtree.Item         // ground-truth lookup staging
	truth     []broadcast.POI      // the audit oracle's answer
	// arena holds the POI lists of repair pieces and trust-screen splits
	// in peers, alive until their query commits: prepare rewinds it.
	arena broadcast.POIArena
	// cur is the one-shot query in flight (launch), World-owned like the
	// buffers above so that launching a query allocates nothing.
	cur query
}

// collectTarget is one addressed peer's state during a collection.
type collectTarget struct {
	id       int
	departed bool // churned away (the querier cannot know)
	resolved bool // replied with content or a null ack
	// dropped marks a peer whose bounded service queue silently shed at
	// least one of this query's requests: overload, not failure, so the
	// end-of-collection timeout is strike-exempt (the BUSY/queue-drop
	// analogue of the fade suppression below).
	dropped bool
}

// typeState is the per-data-type substrate: its POI field, ground truth,
// and broadcast channel (types are frequency-multiplexed, each with its
// own cyclic schedule — "the effects of other POI types are expected to
// be very similar", Section 4).
type typeState struct {
	db     []broadcast.POI
	truth  *rtree.Tree
	sched  *broadcast.Schedule
	lambda float64 // POI density (per square mile)
	// bcfg is the channel configuration the schedule was built with, kept
	// for epoch rebuilds when the POI-update process mutates db.
	bcfg broadcast.Config
}

// NewWorld builds a simulation world from the parameter set.
func NewWorld(p Params) (*World, error) {
	p.applyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	area := p.Area()

	nTypes := max(p.POITypes, 1)
	prof := p.Faults.Normalized()
	types := make([]typeState, nTypes)
	for ti := range types {
		db := generatePOIs(rng, p)
		items := make([]rtree.Item, len(db))
		for i, poi := range db {
			items[i] = rtree.Item{ID: poi.ID, Pos: poi.Pos}
		}
		bcfg := p.Broadcast
		bcfg.Area = area
		if prof.BroadcastLoss > 0 {
			// One fault profile drives every channel: the broadcast loss
			// rate feeds the schedule's reception-error model, seeded per
			// type so the channels stay independent but reproducible.
			bcfg.LossRate = prof.BroadcastLoss
			bcfg.LossSeed = p.Seed ^ faultSeedSalt ^ int64(ti+1)
		}
		sched, err := broadcast.NewSchedule(db, bcfg)
		if err != nil {
			return nil, err
		}
		types[ti] = typeState{
			db:     db,
			truth:  rtree.Bulk(items, 16),
			sched:  sched,
			lambda: p.POIDensity(),
			bcfg:   bcfg,
		}
	}

	cell := p.TxRangeMiles()
	if cell <= 0 {
		cell = p.AreaMiles / 20
	}
	net, err := p2p.NewNetwork(area, cell)
	if err != nil {
		return nil, err
	}

	// Vehicle speeds in miles per second.
	model, err := mobility.NewWaypoint(area,
		p.MinSpeedMph/3600, p.MaxSpeedMph/3600, p.PauseSec)
	if err != nil {
		return nil, err
	}

	w := &World{
		Params:      p,
		rng:         rng,
		area:        area,
		types:       types,
		net:         net,
		model:       model,
		inj:         faults.New(p.Seed^faultSeedSalt, p.Faults),
		durationSec: p.DurationHours * 3600,
		breakers:    p2p.NewBreakerSet(p.BreakerConfig()),
		blackout:    faults.NewBlackout(p.Seed^faultSeedSalt, prof),
		planner:     p.DegradedMode,
		chanArmed:   prof.BurstEnabled() || prof.BlackoutEnabled(),
	}
	w.warmupSec = w.durationSec * p.WarmupFrac
	if w.blackout != nil {
		w.chanDown = make([]bool, p.MHNumber)
	}
	w.tr = trust.NewEngine(p.Seed^trustSeedSalt, p.TrustConfig(), w.breakers)
	if w.tr != nil {
		// An audit is done with the truth before the oracle runs again.
		w.auditOracle = func(r geom.Rect) []broadcast.POI {
			w.qs.truth = w.poisInRect(w.qs.truth[:0], w.auditType, r)
			return w.qs.truth
		}
		w.tr.LendArena(&w.qs.arena)
	}
	w.qs.repair.POIs = &w.qs.arena
	if prof.ByzantineRate > 0 {
		// Byzantine status is a per-host property, assigned once from a
		// dedicated seeded stream (the attacker's population, not a
		// per-message coin flip): the same hosts lie for the whole run, so
		// reputation has something real to learn.
		byzRng := rand.New(rand.NewSource(p.Seed ^ byzSeedSalt))
		w.byzAttack = make([]faults.Attack, p.MHNumber)
		for i := range w.byzAttack {
			if byzRng.Float64() < prof.ByzantineRate {
				w.byzAttack[i] = prof.Attack
			}
		}
	}
	if p.ConsistencyEnabled() {
		w.cons = newConsState(p, types)
	}
	if p.ContinuousEnabled() {
		w.cont = newContState(p)
	}
	w.ovl = newOverloadState(p)
	if p.Metrics {
		w.mx = newWorldMetrics(w)
	}

	empty := cache.New(p.CacheSize, p.CachePolicy)
	w.caches = make([][]cache.Cache, nTypes)
	for ti := range w.caches {
		w.caches[ti] = make([]cache.Cache, p.MHNumber)
		for i := range w.caches[ti] {
			w.caches[ti][i] = *empty
		}
	}
	w.mob = make([]mobility.State, p.MHNumber)
	for i := range w.mob {
		w.mob[i] = model.Init(rng)
		w.net.Update(i, w.mob[i].Pos)
	}
	if p.PrefillQueriesPerHost > 0 {
		w.prefill()
	}
	return w, nil
}

// generatePOIs draws the POI database: a uniform field (the paper's
// Poisson assumption), or a Gaussian mixture when POIClusters is set.
func generatePOIs(rng *rand.Rand, p Params) []broadcast.POI {
	db := make([]broadcast.POI, p.POINumber)
	area := p.Area()
	if p.POIClusters <= 0 {
		for i := range db {
			db[i] = broadcast.POI{
				ID:  int64(i),
				Pos: geom.Pt(rng.Float64()*p.AreaMiles, rng.Float64()*p.AreaMiles),
			}
		}
		return db
	}
	centers := make([]geom.Point, p.POIClusters)
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64()*p.AreaMiles, rng.Float64()*p.AreaMiles)
	}
	spread := p.AreaMiles / 20
	for i := range db {
		c := centers[rng.Intn(len(centers))]
		pos := geom.Pt(c.X+rng.NormFloat64()*spread, c.Y+rng.NormFloat64()*spread)
		db[i] = broadcast.POI{ID: int64(i), Pos: area.Clip(pos)}
	}
	return db
}

// prefill seeds every host's cache with the results of simulated
// historical queries — a steady-state warm start. Each synthetic region
// is populated directly from the ground-truth database, so the cache
// soundness invariant (a region's POI list is exactly the database
// restricted to the region) holds by construction.
func (w *World) prefill() {
	radius := w.Params.PrefillRadiusMiles
	if radius <= 0 {
		// Default locality: how far knowledge lags behind a host — the
		// mean travel between queries in the paper's configuration
		// (~15 min between queries at ~30 mph ≈ 7.5 mi), capped by the
		// map size for scaled runs.
		radius = math.Min(7.5, w.Params.AreaMiles/2)
	}
	for i := range w.mob {
		m := &w.mob[i]
		ti := w.rng.Intn(len(w.types))
		ts := &w.types[ti]
		n := mobility.Poisson(w.rng, w.Params.PrefillQueriesPerHost)
		for j := 0; j < n; j++ {
			if len(w.types) > 1 {
				ti = w.rng.Intn(len(w.types))
				ts = &w.types[ti]
			}
			angle := w.rng.Float64() * 2 * math.Pi
			d := w.rng.Float64() * radius
			center := w.area.Clip(m.Pos.Add(
				geom.Pt(math.Cos(angle)*d, math.Sin(angle)*d)))
			var region geom.Rect
			if w.Params.Kind == WindowQuery {
				// A historical broadcast window retrieval caches the
				// collective MBR of its packets, capacity-bounded.
				area := float64(w.Params.CacheSize) / math.Max(ts.lambda, 1e-9)
				area *= 0.4 + 0.6*w.rng.Float64()
				half := math.Sqrt(area) / 2
				win, ok := geom.RectAround(center, half).Intersect(w.area)
				if !ok {
					continue
				}
				region = win
			} else {
				k := w.drawK()
				nn := ts.truth.KNN(center, k)
				if len(nn) == 0 {
					continue
				}
				// The search square a historical on-air kNN would have
				// verified: the MBR of the k-th NN circle.
				rk := nn[len(nn)-1].Pos.Dist(center)
				region = geom.RectAround(center, math.Max(rk, 1e-9))
			}
			w.caches[ti][i].Insert(cache.Region{Rect: region, POIs: w.poisInRect(nil, ti, region)},
				m.Pos, m.Heading(), 0)
		}
	}
}

// poisInRect appends the database POIs of one type inside r (ground
// truth) to dst.
func (w *World) poisInRect(dst []broadcast.POI, ti int, r geom.Rect) []broadcast.POI {
	w.qs.items = w.types[ti].truth.AppendWindow(w.qs.items[:0], r)
	dst = slices.Grow(dst, len(w.qs.items))
	for _, it := range w.qs.items {
		dst = append(dst, broadcast.POI(it))
	}
	return dst
}

// Schedule exposes the broadcast schedule of the first data type (for
// experiments and tools).
func (w *World) Schedule() *broadcast.Schedule { return w.types[0].sched }

// Database returns the POI database of the first data type.
func (w *World) Database() []broadcast.POI { return w.types[0].db }

// Stats returns the statistics collected so far.
func (w *World) Stats() Stats {
	s := w.stats
	c := w.inj.Counters
	s.RequestsUnheard = c.RequestsUnheard
	s.RepliesDropped = c.RepliesDropped
	s.RepliesRejected = c.RepliesTruncated + c.RepliesCorrupted
	s.ChurnDepartures = c.ChurnDepartures
	s.ChurnReturns = c.ChurnReturns
	s.BurstFrameLosses = c.BurstLosses
	s.BurstTransitions = c.BurstTransitions
	b := w.breakers.Stats()
	s.BreakerTrips = b.Trips
	s.BreakerShortCircuits = b.ShortCircuits
	s.BreakerRecoveries = b.Recoveries
	s.ByzantineLies = c.ByzantineLies
	tc := w.tr.Counters()
	s.AuditsRun = tc.AuditsRun
	s.AuditFailures = tc.AuditFailures
	s.ConflictsDetected = tc.ConflictsDetected
	s.PeersQuarantined = tc.PeersQuarantined
	s.AuditSlots = tc.AuditSlots
	s.QuarantinedArea = tc.QuarantinedArea
	s.StaleVerdicts = tc.StaleVerdicts
	return s
}

// Trust exposes the trust engine (nil when the AuditRate knob is off) —
// the soak harness asserts its reputation invariants.
func (w *World) Trust() *trust.Engine { return w.tr }

// Breakers exposes the per-peer circuit-breaker set (nil when disabled) —
// the chaos soak harness asserts its state-machine invariants.
func (w *World) Breakers() *p2p.BreakerSet { return w.breakers }

// FaultCounters exposes the injector's raw tallies (testing and tools).
func (w *World) FaultCounters() faults.Counters { return w.inj.Counters }

// SelfCheckErr returns the first ground-truth mismatch observed, if any.
func (w *World) SelfCheckErr() error { return w.selfCheckErr }

// Now returns the simulated time in seconds.
func (w *World) Now() float64 { return w.nowSec }

// slotNow maps simulated time to the broadcast slot clock.
func (w *World) slotNow() int64 {
	return int64(w.nowSec / w.Params.SlotSec)
}

// Run executes the whole configured duration and returns the steady-state
// statistics.
func (w *World) Run() Stats {
	return w.RunTick(nil)
}

// RunTick is Run with a per-step hook: tick (when non-nil) is called after
// every simulation step, on the simulation goroutine. The CLI uses it to
// publish metrics snapshots for the -metrics-listen endpoint; the hook
// observes state only, so a nil tick runs bit-identically.
func (w *World) RunTick(tick func()) Stats {
	dt := w.Params.TimeStepSec
	for w.nowSec < w.durationSec {
		w.Step(dt)
		if tick != nil {
			tick()
		}
	}
	return w.Stats()
}

// Step advances the world by dt seconds: every host moves, then a
// Poisson-distributed number of randomly chosen hosts launch queries.
func (w *World) Step(dt float64) {
	for i := range w.mob {
		w.model.Step(&w.mob[i], dt, w.rng)
		w.net.Update(i, w.mob[i].Pos)
	}
	w.nowSec += dt
	// The overload plane resets its per-tick state (peer queues,
	// admission refill, retry budget, donor table, governor decision)
	// before any query of the tick — including continuous maintenance,
	// which shares the peers' bounded service capacity.
	w.tickReset(dt)
	w.advanceConsistency()
	// Continuous subscriptions register and maintain strictly before the
	// one-shot queries, so a tick's one-shots see the caches its
	// re-verifications filled.
	w.advanceContinuous(dt)

	mean := w.Params.QueryRate / 60 * dt
	n := mobility.Poisson(w.rng, mean)
	// Crowd queries launch after the background load each tick, drawn
	// from the dedicated crowd stream (overload.go); crowd-off runs draw
	// nothing here.
	nCrowd := w.crowdDraw(dt)
	for q := 0; q < n; q++ {
		idx := w.rng.Intn(len(w.mob))
		ti := w.rng.Intn(len(w.types))
		w.launch(idx, ti)
	}
	for q := 0; q < nCrowd; q++ {
		idx, ti := w.crowdPick()
		if w.counted() {
			w.stats.CrowdQueries++
		}
		w.launch(idx, ti)
	}
	w.mx.sync(w)
}

// record emits a trace event when tracing is enabled.
func (w *World) record(e trace.Event) {
	if w.Trace == nil {
		return
	}
	if err := w.Trace.Record(e); err != nil && w.selfCheckErr == nil {
		w.selfCheckErr = err
	}
}

// counted reports whether the warm-up has passed.
func (w *World) counted() bool { return w.nowSec >= w.warmupSec }

// trustScreen runs one query's trust pass (DESIGN.md §11) over the
// collected contributions: cross-validation of overlapping VRs, on-air
// spot audits priced against the remaining deadline budget, and taint
// verdicts. Returns the screened PeerData, the total slots the query has
// now spent (collection backoff plus audit cost), and the per-screen
// report. A nil engine (AuditRate zero) passes the peers through
// untouched — the seed behavior, with zero draws and zero branches past
// the first. bcastUp=false (the host sits in a blackout window) zeroes
// the audit budget: on-air spot audits are physically impossible on a
// dark downlink, and a missed audit must never read as a failed one —
// cross-validation between the contributions themselves still runs.
func (w *World) trustScreen(ti int, peers []core.PeerData, spent int64, bcastUp bool) ([]core.PeerData, int64, trust.Report) {
	if w.tr == nil {
		return peers, spent, trust.Report{}
	}
	contribs := w.qs.contribs[:0]
	for i, pd := range peers {
		// A demoted (epoch-stale) region enters the screen flagged Stale:
		// disagreements it causes are reconciliation work, not evidence of
		// lying, and must not strike the contributing peer.
		o := w.qs.col.from[i]
		contribs = append(contribs, trust.Contribution{Peer: o.peer, VR: pd.VR, POIs: pd.POIs,
			Stale: pd.Tainted, Repaired: o.repaired, AuditOnly: o.far})
	}
	w.qs.contribs = contribs
	// Audits spend broadcast slots; they must fit in whatever the
	// deadline budget has left after collection backoff.
	budget := int64(-1)
	if w.Params.DeadlineSlots > 0 {
		budget = int64(w.Params.DeadlineSlots) - spent
		if budget < 0 {
			budget = 0
		}
	}
	if !bcastUp {
		budget = 0 // dark downlink: no channel to audit against
	}
	w.auditType = ti
	screened, rep := w.tr.Screen(contribs, w.auditOracle, budget)
	out := w.qs.screened[:0]
	for _, r := range screened {
		out = append(out, core.PeerData{VR: r.VR, POIs: r.POIs, Tainted: r.Tainted})
	}
	w.qs.screened = out
	return out, spent + rep.AuditSlots, rep
}

// gather is the paper's sharing step for host idx: broadcast a cache
// request and collect the verified regions of its single-hop peers that
// intersect the relevance rectangle (dropping the rest only shrinks the
// MVR, which keeps verification sound). It stages them in the query's
// collection as they arrived, each with its epoch (admit runs the
// consistency gate afterwards), and returns the neighbour count and the
// broadcast slots spent in retry backoff. The
// fault layer between the two hosts only ever removes information, so a
// degraded collection falls back to the channel instead of trusting
// damaged or outdated data.
//
//  1. Peers with open circuit breakers are short-circuited before any
//     traffic is spent on them.
//  2. The first request frame is broadcast and priced unconditionally: a
//     querier cannot observe an empty or fully breaker-gated neighbourhood
//     without asking. Later rounds run only while a peer is pending, under
//     capped exponential backoff with seeded jitter, and address only the
//     peers that have not yet answered (a delivered reply, a CRC-rejected
//     frame the querier can re-request, and a null "nothing relevant" ack
//     are the three observable responses; silence keeps a peer pending).
//  3. Backoff waits accumulate against the per-query slot deadline; when
//     the next wait would exceed it, the P2P phase abandons its
//     remaining targets (DeadlineAborts) and the spent slots are priced
//     into the query's channel latency.
//  4. Between the request and the reply deliveries of every round, peers
//     may churn: power off / drift out of range (a reply already in
//     flight still arrives; later retries to the departed peer are
//     wasted) or power back on and rejoin.
//  5. Reply outcomes feed the per-peer breakers: CRC rejections and
//     end-of-collection timeouts are failures; sound deliveries are
//     successes.
//
// Every random draw (loss, fates, churn, jitter) comes from the seeded
// injector stream. With a zero fault profile every peer resolves in round
// one and nothing is drawn: one frame, then one reply or null ack per
// neighbour — the paper's ideal exchange.
func (w *World) gather(idx, ti int, relevance geom.Rect) (int, int64) {
	q := w.mob[idx].Pos
	hops := max(w.Params.SharingHops, 1)
	ids := w.net.AppendNeighborsMultiHop(w.qs.ids[:0], q, w.Params.TxRangeMiles(), hops, idx)
	w.qs.ids = ids
	nPeers := len(ids)

	// One query's P2P phase is one breaker cycle.
	w.breakers.Tick()

	count := w.counted()
	stamp := int64(w.nowSec)
	w.qs.col.reset()
	if w.Params.UseOwnCache {
		// The host's own cache is a zero-cost "peer": no wire traffic, no
		// transport faults, no breaker. Regions beyond the consistency
		// layer's repair horizon are offered demoted (never exact).
		w.appendOwnCache(idx, ti, relevance)
	}

	// Breaker gate: quarantined peers cost nothing this query.
	targets := w.qs.targets[:0]
	for _, id := range ids {
		if w.breakers.Allow(id) {
			targets = append(targets, collectTarget{id: id})
		}
	}
	w.qs.targets = targets

	maxAttempts := 1 + w.inj.Profile().MaxRetries
	deadline := int64(w.Params.DeadlineSlots)
	var spent int64
	remaining := len(targets)

	for attempt := 1; attempt <= maxAttempts && (attempt == 1 || remaining > 0); attempt++ {
		if attempt > 1 {
			// The global per-tick retry budget gates every retry round
			// before its backoff is even priced: exhausted means stop
			// retrying and proceed with the replies collected so far —
			// under a flash crowd, retry amplification is the collapse
			// mechanism, and the budget caps it fleet-wide.
			if w.ovl != nil && !w.ovl.takeRetry() {
				if count {
					w.stats.RetryBudgetExhausted++
				}
				break
			}
			base := faults.BackoffSlots(attempt)
			delay := base + w.inj.Jitter(base)
			if deadline > 0 && spent+delay > deadline {
				w.stats.DeadlineAborts++
				break
			}
			spent += delay
			// The backoff wait advances the slot clock; the fading chain
			// follows it (a no-op with the burst knobs off), so a burst
			// can begin or end inside one collection.
			w.inj.Sync(w.slotNow() + spent)
			w.stats.PeerRetries++
		}
		// One broadcast frame addresses every still-pending peer.
		w.stats.PeerRequests++
		if count {
			w.stats.PeerBytes += int64(wire.RequestSize)
		}

		heard := w.qs.heard[:0] // indices into targets
		for i := range targets {
			t := &targets[i]
			if t.resolved {
				continue
			}
			if t.departed {
				if attempt > 1 {
					// The retry addressed a peer that is no longer
					// there — spent channel time, no possible answer.
					w.stats.WastedRetries++
				}
				continue
			}
			if w.inj.RequestHeard() {
				heard = append(heard, i)
			}
		}
		w.qs.heard = heard

		// Churn window between the request and the reply deliveries.
		for i := range targets {
			t := &targets[i]
			if t.resolved {
				continue
			}
			if !t.departed {
				t.departed = w.inj.ChurnDeparts()
			} else if w.inj.ChurnReturns() {
				t.departed = false
			}
		}

		// Reply deliveries, including from peers that departed in the churn
		// window: their replies were already in flight.
		for _, i := range heard {
			t := &targets[i]
			if w.ovl != nil && w.ovl.queue != nil {
				// Peer-side backpressure before any serving work. BUSY is
				// an explicit, observable refusal: the peer is overloaded,
				// not broken, so the target resolves with no breaker
				// signal and no further retries this query (the frame's
				// advisory retry-after points at a later tick). A silent
				// queue drop keeps the target pending — later rounds may
				// retry into the same saturated queue — but marks it
				// strike-exempt for the end-of-collection timeout.
				switch w.ovl.queue.Admit(t.id) {
				case p2p.ServeBusy:
					t.resolved = true
					remaining--
					w.stats.BusyReplies++
					if count {
						w.stats.PeerBytes += int64(wire.BusySize)
					}
					continue
				case p2p.ServeDrop:
					t.dropped = true
					w.stats.QueueDrops++
					continue
				}
			}
			switch w.receiveReply(t.id, ti, relevance, stamp, count) {
			case replyDelivered:
				t.resolved = true
				remaining--
				w.stats.PeerReplies++
				w.breakers.RecordSuccess(t.id)
			case replySilent, replyUnencodable:
				// Null ack: nothing relevant — no reason to retry, no
				// reputation signal either way.
				t.resolved = true
				remaining--
			case replyRejected:
				// The querier received garbage and knows it: the peer
				// stays pending (a retry may fetch a clean copy) and its
				// breaker records the CRC failure.
				w.breakers.RecordFailure(t.id)
			case replyDropped:
				// Pure silence — indistinguishable from an unheard
				// request; the peer stays pending.
			}
		}
	}

	// Reply timeouts: every targeted peer that never produced an
	// observable response within the budget/deadline strikes its breaker
	// once (the querier cannot distinguish departure, deafness, and
	// drop — all look like a peer that did not answer). Two exceptions
	// keep reputations honest under impairments the querier CAN observe:
	// a fading burst is a channel property, not peer misbehavior, so an
	// impaired chain suppresses every timeout strike of the collection
	// (a global fade must never trip honest-peer breakers); and a
	// half-open probe whose target departed mid-probe is inconclusive
	// rather than failed (RecordDeparture). Content-level strikes — the CRC
	// rejections above — stand either way: a fade
	// only removes frames, it cannot damage the ones that arrive.
	impaired := w.inj.ChannelImpaired()
	for i := range targets {
		t := &targets[i]
		if t.resolved {
			continue
		}
		switch {
		case impaired:
			if w.breakers != nil {
				w.stats.FadeSuppressedStrikes++
			}
		case t.dropped:
			// The peer's service queue shed this query's request. A drop
			// only happens beyond the busy band — after the peer has
			// already refused 3×cap requests with explicit BUSY frames —
			// so the querier's neighborhood is observably overloaded,
			// not misbehaving. The timeout must not strike, or a flash
			// crowd would trip every breaker around the hotspot and
			// amputate the sharing layer exactly when it is most needed.
		case t.departed:
			w.breakers.RecordDeparture(t.id)
		default:
			w.breakers.RecordFailure(t.id)
		}
	}
	w.stats.BackoffSlots += spent
	return nPeers, spent
}

// replyKind classifies what the querying host learned from one peer's
// reply attempt — what gather feeds its breakers and retry scheduler.
type replyKind int

const (
	// replySilent: the peer had nothing relevant (modeled as a free null
	// ack, so it is not retried).
	replySilent replyKind = iota
	// replyDelivered: reply content arrived and passed the wire checks.
	replyDelivered
	// replyDropped: the reply was lost in flight — pure silence to the
	// querier, indistinguishable from an unheard request.
	replyDropped
	// replyRejected: a damaged frame arrived and the CRC/structure
	// checks refused it (the querier knows this peer sent garbage).
	replyRejected
	// replyUnencodable: the peer's region set exceeded wire limits and
	// could not be sent at all (treated like silence).
	replyUnencodable
)

// receiveReply models one peer answering a cache request: the peer serves
// every cached region intersecting the relevance rectangle and the channel
// applies a transport fate to the reply. What arrived is staged in the
// query's collection, each region with its epoch.
func (w *World) receiveReply(id, ti int, relevance geom.Rect, stamp int64, count bool) replyKind {
	c := &w.caches[ti][id]
	// Serving is a cache touchpoint: the peer lazily expires its own
	// timed-out regions before offering anything (no-op unless VRTTLSec).
	w.expireTTL(c)
	// A peer whose cache MBR misses the relevance rectangle holds nothing
	// relevant: it sends the null ack before any region is read.
	if mbr, ok := c.Bounds(); !ok || !mbr.Intersects(relevance) {
		return replySilent
	}
	atk := faults.AttackNone
	if w.byzAttack != nil {
		atk = w.byzAttack[id]
	}
	// shared stages the served regions in World scratch; its contents are
	// consumed (copied into PeerData values or wire frames) before this
	// function returns, so reuse across replies is safe. Regions are
	// 80-byte structs, so every loop over them and over shared goes by index.
	shared := w.qs.shared[:0]
	regions := c.Regions()
	for ri := range regions {
		if !regions[ri].Rect.Intersects(relevance) {
			continue
		}
		shared = append(shared, regions[ri])
		// The peer serves the region regardless of freshness — it cannot
		// know the POI-update process invalidated it.
		c.Touch(ri, stamp)
		if atk != faults.AttackNone {
			// A byzantine host mangles the claim before it leaves its
			// radio: the lie rides every downstream path (delivery, loss,
			// wire damage) exactly like an honest claim would. AttackClaim
			// returns fresh copies, so the host's own cache stays intact.
			s := &shared[len(shared)-1]
			s.Rect, s.POIs = w.inj.AttackClaim(s.Rect, s.POIs, atk)
		}
	}
	w.qs.shared = shared
	if len(shared) == 0 {
		return replySilent // nothing relevant: the peer stays silent
	}

	wireBytes := wire.ReplyOverhead
	for i := range shared {
		wireBytes += wire.RegionWireSize(len(shared[i].POIs))
	}

	switch fate := w.inj.ReplyFate(); fate {
	case faults.FateDeliver:
		if count {
			w.stats.PeerBytes += int64(wireBytes)
		}
	case faults.FateDrop:
		// Lost in flight: the frame occupied the channel, nothing arrived.
		if count {
			w.stats.PeerBytes += int64(wireBytes)
		}
		return replyDropped
	default: // FateTruncate, FateCorrupt
		// Damaged in flight: run the real codec end to end. The CRC
		// trailer rejects the frame and the query degrades; in the
		// astronomically unlikely event the damage passes every check,
		// the decoded content is used like any delivered reply.
		regs := w.qs.regs[:0]
		for i := range shared {
			regs = append(regs, wire.Region{Rect: shared[i].Rect, POIs: shared[i].POIs})
		}
		w.qs.regs = regs
		w.queryID++
		enc, err := wire.EncodeReply(wire.Reply{QueryID: w.queryID, Regions: regs})
		if err != nil {
			// A cache region exceeding wire limits cannot be encoded;
			// treat the reply as undeliverable.
			return replyUnencodable
		}
		mangled := w.inj.Mangle(enc, fate)
		if count {
			w.stats.PeerBytes += int64(len(mangled))
		}
		dec, err := wire.DecodeReply(mangled)
		if err != nil || len(dec.Regions) != len(shared) {
			return replyRejected // sound degradation, already counted
		}
		// The staged regions keep their epoch; the frame carries the
		// (damage-passed) geometry.
		for i, reg := range dec.Regions {
			shared[i].Rect, shared[i].POIs = reg.Rect, reg.POIs
		}
	}

	for i := range shared {
		w.qs.col.add(core.PeerData{VR: shared[i].Rect, POIs: shared[i].POIs},
			origin{peer: id, epoch: shared[i].Epoch})
	}
	return replyDelivered
}

// drawK samples the per-query k around the configured mean.
func (w *World) drawK() int {
	return max(mobility.Poisson(w.rng, float64(w.Params.K)), 1)
}

// knnRelevanceRadius bounds which peer regions can matter for a k-NN
// query: several times the expected k-NN distance under the POI density,
// floored by the transmission range.
func (w *World) knnRelevanceRadius(ti, k int) float64 {
	r := 4 * math.Sqrt(float64(k)/(math.Pi*math.Max(w.types[ti].lambda, 1e-9)))
	if tx := 2 * w.Params.TxRangeMiles(); tx > r {
		r = tx
	}
	return math.Min(r, w.Params.AreaMiles)
}

// drawWindow samples a query window: side around the configured mean,
// center at a normally-distributed distance from the host in a uniform
// direction, clipped to the service area.
func (w *World) drawWindow(q geom.Point) (geom.Rect, bool) {
	side := w.Params.WindowSideMiles() * (0.5 + w.rng.Float64())
	if side <= 0 {
		return geom.Rect{}, false
	}
	dist := math.Abs(w.rng.NormFloat64()*w.Params.WindowDistMiles/3 +
		w.Params.WindowDistMiles)
	angle := w.rng.Float64() * 2 * math.Pi
	center := q.Add(geom.Pt(math.Cos(angle)*dist, math.Sin(angle)*dist))
	center = w.area.Clip(center)
	win, ok := geom.RectAround(center, side/2).Intersect(w.area)
	if !ok {
		return geom.Rect{}, false
	}
	return win, true
}

func (w *World) checkKNN(ti int, q geom.Point, k int, got []broadcast.POI) {
	if w.selfCheckErr != nil {
		return
	}
	want := w.types[ti].truth.KNN(q, k)
	if len(got) != len(want) {
		w.selfCheckErr = fmt.Errorf("kNN self-check: got %d results want %d", len(got), len(want))
		return
	}
	for i := range want {
		if math.Abs(got[i].Pos.Dist(q)-want[i].Pos.Dist(q)) > 1e-9 {
			w.selfCheckErr = fmt.Errorf(
				"kNN self-check: rank %d distance %v want %v (q=%v k=%d)",
				i, got[i].Pos.Dist(q), want[i].Pos.Dist(q), q, k)
			return
		}
	}
}

func (w *World) checkWindow(ti int, win geom.Rect, got []broadcast.POI) {
	if w.selfCheckErr != nil {
		return
	}
	want := w.types[ti].truth.Window(win)
	if len(got) != len(want) {
		w.selfCheckErr = fmt.Errorf(
			"window self-check: got %d results want %d (w=%v)", len(got), len(want), win)
		return
	}
	ids := make(map[int64]bool, len(got))
	for _, p := range got {
		ids[p.ID] = true
	}
	for _, p := range want {
		if !ids[p.ID] {
			w.selfCheckErr = fmt.Errorf("window self-check: POI %d missing (w=%v)", p.ID, win)
			return
		}
	}
}
