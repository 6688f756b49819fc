package sim

import (
	"fmt"
	"math"
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/p2p"
	"lbsq/internal/rtree"
	"lbsq/internal/sweep"
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
	// CompareBaseline, when set, additionally prices every counted query
	// with the plain on-air algorithms (no sharing) for the latency
	// experiments.
	CompareBaseline bool
	// SelfCheck, when set, verifies every exact query result against the
	// R-tree ground truth and records the first mismatch.
	SelfCheck bool
	// Trace, when non-nil, receives one event per counted query (JSONL);
	// the caller flushes it, and its Flush reports any write error.
	Trace *trace.Writer

	rng     *rand.Rand
	area    geom.Rect
	data    typeState
	net     *p2p.Network
	model   *mobility.Waypoint
	inj     *faults.Injector
	queryID uint64 // wire correlation IDs for encoded replies

	// Per-host state, one array per field indexed by host id: mob[i] is
	// host i's motion, caches[i] its cache (Table 4: CSize), by value so
	// serving a peer reads its bounds in one load.
	mob    []mobility.State
	caches []cache.Cache

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
	// value).
	auditOracle trust.Oracle

	// mx is the observability layer (nil unless Params.Metrics): the
	// per-world registry and its histogram handles.
	// Observation is allocation-free and draws no randomness, so the
	// simulation trajectory is identical with or without it.
	mx *worldMetrics

	// cons is the consistency layer (nil unless Params.UpdateRate > 0):
	// the POI-update process, the epoch state, and the on-air
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
	// hot path (neighbor IDs, heard lists, the collection, retry targets,
	// the damaged-reply codec staging, and the core algorithm scratch)
	// lives here and is reused across queries. Queries within one World
	// run strictly sequentially, so no synchronization is needed; parallel
	// sweeps give every cell its own World and therefore its own scratch.
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

// collection is a query's table of collected regions, one row per region
// with where it came from, side by side. A row is written once, where its
// region arrives, and later stages read or mark it in place.
type collection struct {
	peers []core.PeerData
	from  []origin
}

func (c *collection) reset() { c.truncate(0) }

// truncate drops every row from n on.
func (c *collection) truncate(n int) { c.peers, c.from = c.peers[:n], c.from[:n] }

func (c *collection) add(pd core.PeerData, o origin) {
	c.peers = append(c.peers, pd)
	c.from = append(c.from, o)
}

// queryScratch holds the per-World reusable buffers of the query path.
// Aliasing contract: the collection's rows alias live cache storage, the
// arena or a decoded frame's geometry for one query only, and the core
// algorithms copy every candidate before returning (see core.PeerData);
// all other buffers are consumed before the query completes.
type queryScratch struct {
	ids   []int // neighbor lookup buffer
	heard []int // per-round indexes into targets of the peers that heard
	// col is the query's one table of collected regions: appended by
	// gather straight from the serving caches, read in place by the reach
	// cut, rewritten by admit through next (the two swap), read by the
	// trust screen. A coalesced query reads its donor's rows instead.
	col, next collection
	use       []bool               // the reach's candidate rows
	keep      []bool               // the reach cut's verdict per row
	targets   []collectTarget      // per-peer collection state
	regs      []wire.Region        // wire-encoding staging (damaged-reply path)
	frame     []byte               // the damaged reply's encoded frame, mangled in place
	contribs  []trust.Contribution // trust-screen staging
	core      core.Scratch         // NNV/SBNN/SBWQ hot-path scratch
	baseline  broadcast.Scratch    // baseline pricing: the answer aliases core
	repair    cache.RepairScratch  // IR repair transients (admitShared, syncIR)
	rt        rtree.KNNScratch     // ground-truth kNN frontier
	truth     []broadcast.POI      // ground-truth answers: audit oracle, kNN
	// arena holds the POI lists of repair pieces and byzantine claims in
	// the collection until their query commits: prepare rewinds it.
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

// typeState is the one POI type's field, ground truth and broadcast
// channel (the paper evaluates gas stations only, Section 4).
//
// Four sites keep the one Int63 the retired per-query type draw (an Intn
// over one type) consumed, so no random stream moves: prefill once per
// host, Step's background launches, crowdPick and registerSubscription.
// launch keeps the Float64 of the retired baseline sampling coin for the
// same reason: with CompareBaseline every counted query is priced. ROADMAP
// item 8(a) deletes these draws in its deliberate golden diff.
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

	prof := p.Faults.Normalized()
	db := GeneratePOIs(rng, p)
	bcfg := broadcast.Config{Area: area}
	if prof.BroadcastLoss > 0 {
		// The fault profile's broadcast loss rate feeds the schedule's
		// reception-error model on a stream of its own (the trailing 1
		// keeps the seed the channel has always had).
		bcfg.LossRate = prof.BroadcastLoss
		bcfg.LossSeed = p.Seed ^ faultSeedSalt ^ 1
	}
	sched, err := broadcast.NewSchedule(db, bcfg)
	if err != nil {
		return nil, err
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
		net:         net,
		model:       model,
		inj:         faults.New(p.Seed^faultSeedSalt, p.Faults),
		durationSec: p.DurationHours * 3600,
		breakers:    p2p.NewBreakerSet(p2p.BreakerConfig{Threshold: p.BreakerThreshold, Cooldown: p.BreakerCooldown}),
		blackout:    faults.NewBlackout(p.Seed^faultSeedSalt, prof),
		planner:     p.DegradedMode,
		chanArmed:   prof.BurstEnabled() || prof.BlackoutEnabled(),
		data: typeState{
			db:     db,
			truth:  rtree.Bulk(db, 16),
			sched:  sched,
			lambda: p.POIDensity(),
			bcfg:   bcfg,
		},
	}
	w.warmupSec = w.durationSec * p.WarmupFrac
	if w.blackout != nil {
		w.chanDown = make([]bool, p.MHNumber)
	}
	w.tr = trust.NewEngine(p.Seed^trustSeedSalt, trust.Config{AuditRate: p.AuditRate}, w.breakers)
	if w.tr != nil {
		// An audit is done with the truth before the oracle runs again.
		w.auditOracle = func(r geom.Rect) []broadcast.POI {
			w.qs.truth = w.poisInRect(w.qs.truth[:0], r)
			return w.qs.truth
		}
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
		w.cons = newConsState(p, len(db))
	}
	if p.ContinuousEnabled() {
		w.cont = newContState(p)
	}
	w.ovl = newOverloadState(p)
	if p.Metrics {
		w.mx = newWorldMetrics(w)
	}

	empty := cache.New(p.CacheSize, p.CachePolicy)
	w.caches = make([]cache.Cache, p.MHNumber)
	for i := range w.caches {
		w.caches[i] = *empty
	}
	w.mob = make([]mobility.State, p.MHNumber)
	for i := range w.mob {
		w.mob[i] = model.Init(rng)
		w.net.Update(i, w.mob[i].Pos)
	}
	if p.PrefillQueriesPerHost > 0 {
		w.prefill(sweep.Workers())
	}
	return w, nil
}

// GeneratePOIs draws the POI database of p.POINumber POIs over the square
// of side p.AreaMiles: a uniform field (the paper's Poisson assumption), or
// a Gaussian mixture of p.POIClusters centres when that is set.
func GeneratePOIs(rng *rand.Rand, p Params) []broadcast.POI {
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

// prefillBlock is how many hosts one block of the warm start's build pass
// fills. A round is 16 blocks per worker: its specs stay small whatever
// the prefill mean, and a worker idles for at most a block as it ends.
const prefillBlock = 32

// prefill seeds every host's cache with the results of simulated
// historical queries — a steady-state warm start. Each synthetic region
// is populated directly from the ground-truth database, so the cache
// soundness invariant (a region's POI list is exactly the database
// restricted to the region) holds by construction.
func (w *World) prefill(workers int) {
	radius := w.Params.PrefillRadiusMiles
	if radius <= 0 {
		// Default locality: how far knowledge lags behind a host — the
		// mean travel between queries in the paper's configuration
		// (~15 min between queries at ~30 mph ≈ 7.5 mi), capped by the
		// map size for scaled runs.
		radius = math.Min(7.5, w.Params.AreaMiles/2)
	}
	type spec struct {
		rect geom.Rect // the window, or (k > 0) the kNN centre in Min
		k    int
	}
	type scratch struct {
		rt        rtree.KNNScratch
		nn, stage []broadcast.POI
	}
	blocks := make([]scratch, 16*workers)
	round := len(blocks) * prefillBlock
	var specs []spec
	ends := make([]int, 1, round+1) // host lo+j's are specs[ends[j]:ends[j+1]]
	for lo := 0; lo < len(w.mob); lo += round {
		hi := min(lo+round, len(w.mob))
		// The draw pass makes every world-rng draw, in host order. No
		// draw depends on a retrieval, so the stream ends where it would
		// if each region were built as it was drawn.
		specs, ends = specs[:0], ends[:1]
		for i := lo; i < hi; i++ {
			w.rng.Int63() // the kept type draw (typeState)
			for range mobility.Poisson(w.rng, w.Params.PrefillQueriesPerHost) {
				angle := w.rng.Float64() * 2 * math.Pi
				d := w.rng.Float64() * radius
				center := w.area.Clip(w.mob[i].Pos.Add(geom.Pt(math.Cos(angle)*d, math.Sin(angle)*d)))
				if w.Params.Kind != WindowQuery {
					specs = append(specs, spec{rect: geom.Rect{Min: center}, k: w.drawK(w.rng)})
					continue
				}
				// A historical broadcast window retrieval caches the
				// collective MBR of its packets, capacity-bounded.
				area := float64(w.Params.CacheSize) / math.Max(w.data.lambda, 1e-9)
				area *= 0.4 + 0.6*w.rng.Float64()
				if win, ok := geom.RectAround(center, math.Sqrt(area)/2).Intersect(w.area); ok {
					specs = append(specs, spec{rect: win})
				}
			}
			ends = append(ends, len(specs))
		}
		// The build pass fills the round's blocks on up to workers
		// goroutines, each block on scratch of its own. A host's fill
		// reads only the R-tree and its own motion state and writes only
		// its own cache, so every cache is the same for any worker count.
		// Most regions are evicted by the host's later ones, so each is
		// staged in the block's buffer and Own copies out the survivors.
		sweep.Map(workers, blocks, func(b int, _ scratch) struct{} {
			s := &blocks[b]
			for i := lo + b*prefillBlock; i < min(hi, lo+(b+1)*prefillBlock); i++ {
				m := &w.mob[i]
				s.stage = s.stage[:0]
				for _, sp := range specs[ends[i-lo]:ends[i-lo+1]] {
					region := sp.rect
					if sp.k > 0 {
						center := sp.rect.Min
						if s.nn = w.data.truth.AppendKNN(s.nn[:0], center, sp.k, &s.rt); len(s.nn) == 0 {
							continue
						}
						// The search square a historical on-air kNN
						// would have verified: the k-th NN circle's MBR.
						region = geom.RectAround(center, math.Max(s.nn[len(s.nn)-1].Pos.Dist(center), 1e-9))
					}
					start := len(s.stage)
					s.stage = w.poisInRect(s.stage, region)
					pois := s.stage[start:len(s.stage):len(s.stage)]
					w.caches[i].Stage(cache.Region{Rect: region, POIs: pois}, m.Pos, m.Heading(), 0)
				}
				w.caches[i].Own()
			}
			return struct{}{}
		})
	}
}

// poisInRect appends the database POIs inside r (ground truth) to dst.
func (w *World) poisInRect(dst []broadcast.POI, r geom.Rect) []broadcast.POI {
	return w.data.truth.AppendWindow(dst, r)
}

// Schedule exposes the broadcast schedule (for experiments and tools).
func (w *World) Schedule() *broadcast.Schedule { return w.data.sched }

// Database returns the POI database.
func (w *World) Database() []broadcast.POI { return w.data.db }

// Stats returns the statistics collected so far.
func (w *World) Stats() Stats { return w.stats }

// bit counts an event a layer's call reported: 1 for true, 0 for false.
func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

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
		w.rng.Int63() // the kept type draw (typeState)
		w.launch(idx)
	}
	for q := 0; q < nCrowd; q++ {
		idx := w.crowdPick()
		if w.counted() {
			w.stats.CrowdQueries++
		}
		w.launch(idx)
	}
}

// record emits a trace event when tracing is enabled. A write error is
// the trace's, not the run's: it sticks in the writer, whose Flush
// returns it.
func (w *World) record(e trace.Event) {
	if w.Trace != nil {
		_ = w.Trace.Record(e)
	}
}

// counted reports whether the warm-up has passed.
func (w *World) counted() bool { return w.nowSec >= w.warmupSec }

// trustScreen runs one query's trust pass (DESIGN.md §11) over the
// query's collection: cross-validation of overlapping VRs, on-air spot
// audits priced against the remaining deadline budget, and taint
// verdicts. Returns the screen's rows (engine scratch, valid until the
// next screen), the total slots the query has now spent (collection
// backoff plus audit cost), and the per-screen report, which is summed
// into Stats here and nowhere else, warm-up included. A nil engine
// (AuditRate zero) returns the collection untouched — the seed behavior,
// with zero draws and zero branches past the first.
// bcastUp=false (the host sits in a blackout window) zeroes the audit
// budget: on-air spot audits are physically impossible on a dark
// downlink, and a missed audit must never read as a failed one —
// cross-validation between the contributions themselves still runs.
func (w *World) trustScreen(spent int64, bcastUp bool) ([]core.PeerData, int64, trust.Report) {
	col := &w.qs.col
	if w.tr == nil {
		return col.peers, spent, trust.Report{}
	}
	contribs := w.qs.contribs[:0]
	for i := range col.peers {
		// A demoted (epoch-stale) region enters the screen flagged Stale:
		// disagreements it causes are reconciliation work, not evidence of
		// lying, and must not strike the contributing peer.
		pd, o := &col.peers[i], &col.from[i]
		contribs = append(contribs, trust.Contribution{Peer: o.peer, VR: pd.VR, POIs: pd.POIs,
			Stale: pd.Tainted, Repaired: o.repaired, AuditOnly: o.far})
	}
	w.qs.contribs = contribs
	// Audits spend broadcast slots; they must fit in whatever the
	// deadline budget has left after collection backoff.
	budget := int64(-1)
	if w.Params.DeadlineSlots > 0 {
		budget = max(int64(w.Params.DeadlineSlots)-spent, 0)
	}
	if !bcastUp {
		budget = 0 // dark downlink: no channel to audit against
	}
	rows, rep := w.tr.Screen(contribs, w.auditOracle, budget)
	w.stats.AuditsRun += int64(rep.Audits)
	w.stats.AuditFailures += int64(rep.AuditFailures)
	w.stats.ConflictsDetected += int64(rep.Conflicts)
	w.stats.PeersQuarantined += int64(rep.Convictions)
	w.stats.BreakerTrips += int64(rep.BreakerTrips)
	w.stats.StaleVerdicts += int64(rep.StaleConflicts)
	w.stats.AuditSlots += rep.AuditSlots
	w.stats.QuarantinedArea += rep.QuarantinedArea
	return rows, spent + rep.AuditSlots, rep
}

// gather is the paper's sharing step for host idx: broadcast a cache
// request and collect the verified regions of its single-hop peers that
// intersect the relevance rectangle (dropping the rest only shrinks the
// MVR, which keeps verification sound). It appends them to the query's
// collection as they arrive, each with its epoch (admit runs the
// consistency gate afterwards), and returns the neighbour count and the
// broadcast slots spent in retry backoff; a standing re-verification's
// retries bypass the per-tick retry budget. The fault layer between the
// two hosts only ever removes information, so a degraded collection falls
// back to the channel instead of trusting damaged or outdated data.
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
func (w *World) gather(idx int, relevance geom.Rect, standing bool) (int, int64) {
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
		w.appendOwnCache(idx, relevance)
	}

	// Breaker gate: quarantined peers cost nothing this query; each one
	// left out is a short circuit.
	targets := w.qs.targets[:0]
	for _, id := range ids {
		if w.breakers.Allow(id) {
			targets = append(targets, collectTarget{id: id})
		}
	}
	w.qs.targets = targets
	w.stats.BreakerShortCircuits += int64(len(ids) - len(targets))

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
			if w.ovl != nil && !w.ovl.takeRetry(standing) {
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
			w.stats.BurstTransitions += w.inj.Sync(w.slotNow() + spent)
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
			ok, faded := w.inj.RequestHeard()
			if ok {
				heard = append(heard, i)
			}
			w.stats.RequestsUnheard += bit(!ok)
			w.stats.BurstFrameLosses += bit(faded)
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
				w.stats.ChurnDepartures += bit(t.departed)
			} else if w.inj.ChurnReturns() {
				t.departed = false
				w.stats.ChurnReturns++
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
			switch w.receiveReply(t.id, relevance, stamp, count) {
			case replyDelivered:
				t.resolved = true
				remaining--
				w.stats.PeerReplies++
				w.stats.BreakerRecoveries += bit(w.breakers.RecordSuccess(t.id))
			case replySilent, replyUnencodable:
				// Null ack: nothing relevant — no reason to retry, no
				// reputation signal either way.
				t.resolved = true
				remaining--
			case replyRejected:
				// The querier received garbage and knows it: the peer
				// stays pending (a retry may fetch a clean copy) and its
				// breaker records the CRC failure.
				w.stats.BreakerTrips += bit(w.breakers.RecordFailure(t.id))
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
			w.stats.BreakerTrips += bit(w.breakers.RecordDeparture(t.id))
		default:
			w.stats.BreakerTrips += bit(w.breakers.RecordFailure(t.id))
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
// applies a transport fate to the reply. Each served region is appended to
// the query's collection, with its epoch, straight from the peer's cache;
// a reply that does not arrive truncates the collection back to the row it
// started at.
func (w *World) receiveReply(id int, relevance geom.Rect, stamp int64, count bool) replyKind {
	c := &w.caches[id]
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
	col := &w.qs.col
	first := len(col.peers)
	wireBytes := wire.ReplyOverhead
	// Regions are 80-byte structs, so the loop goes by index.
	regions := c.Regions()
	for ri := range regions {
		r := &regions[ri]
		if !r.Rect.Intersects(relevance) {
			continue
		}
		// The peer serves the region regardless of freshness — it cannot
		// know the POI-update process invalidated it.
		c.Touch(ri, stamp)
		pd := core.PeerData{VR: r.Rect, POIs: r.POIs, Bounded: atk == faults.AttackNone}
		if atk != faults.AttackNone {
			// A byzantine host mangles the claim before it leaves its
			// radio: the lie rides every downstream path (delivery, loss,
			// wire damage) exactly like an honest claim would. AttackClaim
			// copies into the arena, so the host's own cache stays intact.
			pd.VR, pd.POIs = w.inj.AttackClaim(&w.qs.arena, pd.VR, pd.POIs, atk)
			w.stats.ByzantineLies++
		}
		col.add(pd, origin{peer: id, epoch: r.Epoch})
		wireBytes += wire.RegionWireSize(len(pd.POIs))
	}
	rows := col.peers[first:]
	if len(rows) == 0 {
		return replySilent // nothing relevant: the peer stays silent
	}

	fate, faded := w.inj.ReplyFate()
	w.stats.BurstFrameLosses += bit(faded)
	switch fate {
	case faults.FateDeliver:
		if count {
			w.stats.PeerBytes += int64(wireBytes)
		}
	case faults.FateDrop:
		// Lost in flight: the frame occupied the channel, nothing arrived.
		w.stats.RepliesDropped++
		if count {
			w.stats.PeerBytes += int64(wireBytes)
		}
		col.truncate(first)
		return replyDropped
	default: // FateTruncate, FateCorrupt
		// Damaged in flight: run the real codec end to end. The CRC
		// trailer rejects the frame and the query degrades; in the
		// astronomically unlikely event the damage passes every check,
		// the decoded content is used like any delivered reply.
		w.qs.regs = w.qs.regs[:0]
		for i := range rows {
			w.qs.regs = append(w.qs.regs, wire.Region{Rect: rows[i].VR, POIs: rows[i].POIs})
		}
		w.queryID++
		enc, err := wire.AppendReply(w.qs.frame[:0], wire.Reply{QueryID: w.queryID, Regions: w.qs.regs})
		w.qs.frame = enc
		if err != nil {
			// A cache region exceeding wire limits cannot be encoded;
			// treat the reply as undeliverable.
			col.truncate(first)
			return replyUnencodable
		}
		mangled := w.inj.Mangle(enc, fate)
		if count {
			w.stats.PeerBytes += int64(len(mangled))
		}
		dec, err := wire.DecodeReply(mangled)
		if err != nil || len(dec.Regions) != len(rows) {
			w.stats.RepliesRejected++ // sound degradation
			col.truncate(first)
			return replyRejected
		}
		// The rows keep their epoch; the frame carries the (damage-passed)
		// geometry, which promises nothing about where its POIs lie.
		for i, reg := range dec.Regions {
			rows[i].VR, rows[i].POIs, rows[i].Bounded = reg.Rect, reg.POIs, false
		}
	}
	return replyDelivered
}

// drawK samples a query's k around the configured mean from rng.
func (w *World) drawK(rng *rand.Rand) int {
	return max(mobility.Poisson(rng, float64(w.Params.K)), 1)
}

// knnRelevanceRadius bounds which peer regions can matter for a k-NN
// query: several times the expected k-NN distance under the POI density,
// floored by the transmission range.
func (w *World) knnRelevanceRadius(k int) float64 {
	r := 4 * math.Sqrt(float64(k)/(math.Pi*math.Max(w.data.lambda, 1e-9)))
	if tx := 2 * w.Params.TxRangeMiles(); tx > r {
		r = tx
	}
	return math.Min(r, w.Params.AreaMiles)
}

// drawWindow samples a query window's shape from rng: its side around
// the configured mean, and its center's offset from the host, at a
// normally-distributed distance in a uniform direction. ok is false when
// the side is not positive.
func (w *World) drawWindow(rng *rand.Rand) (side float64, off geom.Point, ok bool) {
	side = w.Params.WindowSideMiles() * (0.5 + rng.Float64())
	if side <= 0 {
		return 0, geom.Point{}, false
	}
	dist := math.Abs(rng.NormFloat64()*w.Params.WindowDistMiles/3 +
		w.Params.WindowDistMiles)
	angle := rng.Float64() * 2 * math.Pi
	return side, geom.Pt(math.Cos(angle)*dist, math.Sin(angle)*dist), true
}

func (w *World) checkKNN(q geom.Point, k int, got []broadcast.POI) {
	if w.selfCheckErr != nil {
		return
	}
	want := w.data.truth.AppendKNN(w.qs.truth[:0], q, k, &w.qs.rt)
	w.qs.truth = want
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

func (w *World) checkWindow(win geom.Rect, got []broadcast.POI) {
	if w.selfCheckErr != nil {
		return
	}
	want := w.data.truth.AppendWindow(w.qs.truth[:0], win)
	w.qs.truth = want
	if len(got) != len(want) {
		w.selfCheckErr = fmt.Errorf(
			"window self-check: got %d results want %d (w=%v)", len(got), len(want), win)
		return
	}
	// A POI is its ID at its position: a moved POI (IRMove keeps the ID)
	// answered at its old position is a wrong answer.
	have := make(map[broadcast.POI]bool, len(got))
	for _, p := range got {
		have[p] = true
	}
	for _, p := range want {
		if !have[p] {
			w.selfCheckErr = fmt.Errorf("window self-check: POI %d at %v missing (w=%v)", p.ID, p.Pos, win)
			return
		}
	}
}
