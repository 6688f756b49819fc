// Package trust is the Byzantine-resilience subsystem of the sharing
// architecture. The fault layer (internal/faults) models a lossy but
// honest substrate and the breaker lifecycle (internal/p2p) tolerates
// crash-style misbehavior; neither catches a *lying* peer, because a
// fabricated verified region passes the wire CRC and arrives on time.
// internal/core/byzantine_test.go documents the consequence: one lying
// peer poisons Lemma 3.1 into a verified-wrong nearest neighbor.
//
// The defense is audit-gated vouching built from three mechanisms:
//
//  1. Cross-validation of overlapping VRs at MVR-merge time. Two peers
//     whose verified regions overlap must agree on the POI set
//     restricted to the overlap — both claim complete knowledge of it.
//     Any disagreement is a conflict. When exactly one claimant is
//     currently vouched, the vouch is audit-backed ground-truth
//     evidence: only the unvouched claimant is struck and the vouched
//     claim stands (a byzantine peer can never be vouched, so this
//     verdict is sound — and it stops one liar from shredding the
//     honest population's trust, the failure mode that otherwise
//     collapses sharing coverage entirely). When neither (or both) is
//     vouched the engine cannot tell who lied: the overlap rectangle is
//     quarantined out of the merge (subtracted from every unvouched
//     contribution, one rectangle of the quarantine's outline at a time,
//     by the cut kernel geom.Uncovered; vouched claims stand whole) for
//     the quarantine horizon (DefaultQuarantineCycles screens) and both
//     peers are struck and unvouched. The live rectangle set is
//     deduplicated and capped (maxQuarRects) so a sustained attack cannot
//     make the screening pass itself unaffordable.
//  2. On-air spot audits. A seeded, rate-limited sample of contributions
//     is re-verified against the broadcast channel while the MH is
//     already tuned in; the cost is priced in slots against the query's
//     remaining deadline budget. The audit re-verifies the *sampled
//     contribution in full* (sampling is at the contribution level, so
//     the cost stays bounded while a sampled lie cannot hide): a failed
//     audit convicts the peer on the spot, a passed audit vouches it
//     for the vouch horizon (DefaultVouchCycles screens) and forgives
//     its standing strikes (the ground truth just testified for it).
//  3. Reputation-driven quarantine. Convictions (failed audit, or
//     DefaultConvictStrikes accumulated conflict strikes) quarantine the
//     peer for the quarantine horizon and force its circuit breaker open
//     (p2p.BreakerSet.ForceOpen); parole runs through the breaker's
//     ordinary half-open probe once the trust quarantine decays.
//
// Soundness contract (the property the soak grid pins): a contribution
// is *untainted* only if it is the host's own cache or its peer is
// currently vouched with no standing strikes. Under the byzantine model
// of internal/faults — every byzantine claim is materially false — a
// byzantine peer can never pass an audit, hence never be vouched, hence
// never contribute to the trusted MVR or a verified answer. Byzantine
// contributions survive only as Tainted results, which core demotes to
// the Lemma 3.2 probabilistic path (never Verified, never a search
// upper bound, never merged into exact channel answers). Lies can
// therefore degrade answers from verified to probabilistic or
// broadcast, but never produce a verified-wrong result. The one known
// exception is DESIGN.md §11.3's residual: a lie a later POI update made
// true passes its audit and vouches its peer.
package trust

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
)

// Self is the Contribution.Peer value for the querying host's own cached
// regions: never audited, never struck, always untainted (a host trusts
// its own storage; staleness of that storage is the consistency layer's
// problem, not the trust layer's).
const Self = -1

// The fixed trust policy: the values Config's unexported fields take
// when zero, as they are outside this package's tests.
const (
	DefaultMaxAuditsPerQuery = 4
	// DefaultVouchCycles trades audit traffic against trusted-peer
	// coverage: the steady-state vouched population is roughly
	// audits-per-screen × the vouch horizon, so a short horizon starves the
	// trusted MVR even on an honest substrate (measured in
	// EXPERIMENTS.md: 64 screens left under half the queries verified
	// with zero liars).
	DefaultVouchCycles      = 512
	DefaultQuarantineCycles = 128
	DefaultConvictStrikes   = 3
	DefaultAuditBaseSlots   = 2
	DefaultAuditPOIsPerSlot = 8
)

// Config parameterizes the trust engine. The zero value disables the
// defense entirely (NewEngine returns nil). AuditRate is the one setting;
// the unexported fields are the fixed policy, each taking its Default*
// constant when zero, and only this package's tests set them.
type Config struct {
	// AuditRate is the probability that one peer contribution is spot
	// audited during one screen. Zero disables the whole defense — the
	// engine only exists when audits can vouch peers, because without
	// vouching every contribution would be permanently tainted.
	AuditRate float64
	// maxAuditsPerQuery caps audits per screen so a dense neighborhood
	// cannot blow the deadline budget.
	maxAuditsPerQuery int
	// vouchCycles is how many screens a passed audit vouches a peer for.
	vouchCycles int64
	// quarantineCycles is how many screens a conviction quarantines a
	// peer (and a conflict quarantines its rectangle) for.
	quarantineCycles int64
	// convictStrikes is how many cross-validation strikes convict a peer
	// without an audit.
	convictStrikes int
	// auditBaseSlots and auditPOIsPerSlot price one audit in broadcast
	// slots: base tuning cost plus one slot per so-many POIs re-checked.
	auditBaseSlots   int64
	auditPOIsPerSlot int
}

// Enabled reports whether the defense is active.
func (c Config) Enabled() bool { return c.AuditRate > 0 }

// Normalized returns the config with zero fields defaulted. It does not
// range-check AuditRate: sim.Params.Validate rejects it out of [0, 1]
// before any engine is built.
func (c Config) Normalized() Config {
	out := c
	if out.maxAuditsPerQuery <= 0 {
		out.maxAuditsPerQuery = DefaultMaxAuditsPerQuery
	}
	if out.vouchCycles <= 0 {
		out.vouchCycles = DefaultVouchCycles
	}
	if out.quarantineCycles <= 0 {
		out.quarantineCycles = DefaultQuarantineCycles
	}
	if out.convictStrikes <= 0 {
		out.convictStrikes = DefaultConvictStrikes
	}
	if out.auditBaseSlots <= 0 {
		out.auditBaseSlots = DefaultAuditBaseSlots
	}
	if out.auditPOIsPerSlot <= 0 {
		out.auditPOIsPerSlot = DefaultAuditPOIsPerSlot
	}
	return out
}

// Contribution is one shared verified region entering a query's merge:
// the claiming peer, the region, and every POI the peer claims is inside
// it. The POIs slice is borrowed: Screen never writes to it and the
// engine keeps no reference past the call, but a Result may share it
// (see Screen).
type Contribution struct {
	Peer int
	VR   geom.Rect
	POIs []broadcast.POI
	// Stale marks a region verified against a superseded POI epoch
	// (consistency layer): honestly reported, but possibly diverged from
	// current truth. A stale contribution is demoted to the probabilistic
	// path like any tainted piece, but disagreements it causes are a
	// *stale* verdict, not a byzantine one — no strikes, no quarantine,
	// no audit (an audit would convict an honest peer for churn it has
	// not heard about yet).
	Stale bool
	// Repaired marks a piece the receiver cut out of the peer's superseded
	// claim inside the IR repair window (cache.ReconcileRegion), not a
	// claim as the peer made it. A piece is never an audit unit: a lie
	// sits in one piece and its siblings match ground truth, so auditing
	// one of those would vouch the liar. A piece is exact only while its
	// peer is vouched by a whole claim.
	Repaired bool
	// AuditOnly marks a whole claim the query's answer cannot reach (it lies
	// beyond the receiver's reach cut, DESIGN.md §9.3): it takes its turn in
	// the audit walk like any whole claim, so the vouched population does
	// not shrink with the cut, but it is neither cross-validated nor
	// returned.
	AuditOnly bool
}

// Result is one screened piece of a contribution. Quarantine subtraction
// can split one contribution into several disjoint pieces; each carries
// the claimed POIs inside it and the taint verdict of its peer.
type Result struct {
	Peer    int
	VR      geom.Rect
	POIs    []broadcast.POI
	Tainted bool
}

// Oracle returns the ground-truth POIs inside r — the content the
// broadcast channel would deliver for that region. The simulator wraps
// its POI database; audits charge the tuning cost separately through the
// slot budget.
type Oracle func(r geom.Rect) []broadcast.POI

// Report is the per-screen activity record (what one query's trust pass
// did), used for latency pricing, metrics, and tracing.
type Report struct {
	// Audits is how many spot audits ran (passed or failed).
	Audits int
	// AuditFailures is how many of them convicted the contributor.
	AuditFailures int
	// Conflicts is how many overlap disagreements cross-validation found
	// between fresh claimants (the byzantine-suspect kind).
	Conflicts int
	// StaleConflicts is how many disagreements involved a stale claimant
	// and were amnestied: reconciliation's problem, not reputation's.
	StaleConflicts int
	// Convictions is how many peers were convicted this screen (audit
	// failures plus strike accumulations).
	Convictions int
	// Tainted is how many surviving contributions were demoted to the
	// probabilistic path.
	Tainted int
	// AuditSlots is the broadcast-slot cost charged to the query.
	AuditSlots int64
	// QuarantinedArea is the area newly quarantined this screen
	// (conflict overlaps plus convicted regions).
	QuarantinedArea float64
}

// Counters is the engine's cumulative activity (the sim's Stats source).
type Counters struct {
	AuditsRun         int64
	AuditFailures     int64
	ConflictsDetected int64
	StaleVerdicts     int64
	PeersQuarantined  int64
	AuditSlots        int64
	QuarantinedArea   float64
}

// peerRec is one peer's reputation record.
type peerRec struct {
	vouchedUntil     int64 // screen seq until which the peer is vouched
	quarantinedUntil int64 // screen seq until which the peer is dropped
	strikes          int32 // standing cross-validation strikes
	// Marks of the screen in progress, cleared before it returns: the
	// peer was convicted, the peer was counted in Report.Tainted.
	convicted bool
	counted   bool
}

// quarRect is one quarantined rectangle of the ledger with its decay
// horizon. born counts the rectangles quarantined before it, so it orders
// the ledger by age; covered says another live rectangle contains this
// one, which keeps it out of the outline.
type quarRect struct {
	r       geom.Rect
	until   int64
	born    int64
	covered bool
}

// outRect is one rectangle of the outline, in the outline's order: largest
// first, and among equal areas the oldest first.
type outRect struct {
	r    geom.Rect
	area float64
	born int64
}

func outlineOf(q *quarRect) outRect { return outRect{r: q.r, area: q.r.Area(), born: q.born} }

// compareOutline is the outline's total order. born is unique, so no two
// members compare equal.
func compareOutline(a, b outRect) int {
	if c := cmp.Compare(b.area, a.area); c != 0 {
		return c
	}
	return cmp.Compare(a.born, b.born)
}

// maxQuarRects caps the live rectangle-quarantine set. Dense sustained
// attacks produce the same conflicting overlaps screen after screen;
// without dedup and a cap the set grows into the tens of thousands and
// the per-contribution subtraction pass both pulverizes every region
// and dominates wall time. Evicting the oldest rectangle early is sound:
// rectangle quarantine is defense-in-depth (taint gating alone carries
// the soundness contract), so forgetting a rectangle can only re-admit
// claims into the *probabilistic* path.
const maxQuarRects = 1024

// slot is one contribution that survived the quarantined-peer drop, with
// what the screen's passes need of it side by side.
type slot struct {
	vr        geom.Rect
	peer      int
	rec       *peerRec // nil for Self
	ci        int32    // index into the contributions
	stale     bool
	auditOnly bool
}

// claims reports whether the slot's region can claim anything: not
// audit-only, positive area and no NaN bound. Only such a region can
// strictly overlap another, so only such slots take part in
// cross-validation.
func (s *slot) claims() bool {
	return !s.auditOnly && s.vr.Min.X < s.vr.Max.X && s.vr.Min.Y < s.vr.Max.Y
}

// conflict is one pair of contributions (i < j, slot indices) that
// disagree on their overlap.
type conflict struct {
	i, j    int32
	overlap geom.Rect
}

// Engine is the reputation state the hosts of one world share through
// their ordinary P2P exchanges — one engine per world, not one per host,
// the same simplification p2p.BreakerSet makes: reputation records, the
// decaying rectangle quarantine, and the seeded audit-sampling stream. It
// is deterministic — identical seeds and call sequences produce identical
// verdicts. Nothing in it is synchronized, and nothing needs to be: the
// simulator runs one query at a time on the stepping goroutine and screens
// in its prepare stage.
type Engine struct {
	cfg      Config
	rng      *rand.Rand
	breakers *p2p.BreakerSet
	seq      int64
	peers    map[int]*peerRec
	counters Counters

	// The live quarantine set is quar[quarHead:], in insertion order;
	// quarIdx maps a live rectangle to its index in quar (dedup). Cap
	// eviction advances quarHead and compacts once per maxQuarRects
	// evictions, so an index is rewritten only when its entry moves.
	// quarMinUntil is a lower bound of the live entries' until: no decay
	// scan is due while seq is below it.
	quar         []quarRect
	quarHead     int
	quarIdx      map[geom.Rect]int
	quarMinUntil int64
	born         int64 // rectangles quarantined so far

	// The outline is what tainted claims are cut by: the live rectangles
	// that no other live rectangle contains, in compareOutline order. It
	// has the ledger's union — a rectangle inside another adds nothing to
	// it — and is a function of the live set alone. A new rectangle and a
	// batch of departures update it in place; a refresh leaves it alone.
	// left and orphans are scratch of one batch of departures.
	outline []outRect
	left    []outRect // outline members that left the ledger
	orphans []int32   // ledger indices of covered rectangles that lost their cover

	// arena is where a Result's POIs are cut from when they cannot be the
	// contribution's own: rewound by every Screen unless lent (LendArena).
	arena *broadcast.POIArena
	lent  bool

	// Scratch reused across screens (DESIGN.md §11.5). out is what Screen
	// returns; nothing here is referenced by a Result's POIs.
	slots     []slot
	conflicts []conflict
	cover     coverage       // the screen's distinct claimed POIs and who claims them
	grid      slotGrid       // point location over the claiming slots' regions
	inside    []int32        // slots whose region contains the claim under test
	pairs     []uint64       // conflicting pairs as witnessed, i<<32 | j, unsorted
	holes     []geom.Rect    // the outline meeting the tainted contributions, in its order
	cut       geom.Uncovered // assemble: a claim's region less the holes
	owner     []int32        // per POI of one contribution: owning piece, or -1
	count     []int32        // per piece: POIs owned
	out       []Result
}

// NewEngine creates a trust engine, or returns nil when the config
// disables the defense. A nil *Engine is valid everywhere downstream
// (the sim threads it without checks); breakers may be nil (convictions
// then rely on the engine's own quarantine alone).
func NewEngine(seed int64, cfg Config, breakers *p2p.BreakerSet) *Engine {
	cfg = cfg.Normalized()
	if !cfg.Enabled() {
		return nil
	}
	return &Engine{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		breakers: breakers,
		peers:    make(map[int]*peerRec),
		quarIdx:  make(map[geom.Rect]int),
		arena:    new(broadcast.POIArena),
	}
}

// LendArena makes a the arena results' POIs are cut from and leaves its
// rewinding to the caller: results may then outlive the next Screen.
// Safe on nil.
func (e *Engine) LendArena(a *broadcast.POIArena) {
	if e != nil {
		e.arena, e.lent = a, true
	}
}

// Counters returns the cumulative activity tallies. Safe on nil (zero).
func (e *Engine) Counters() Counters {
	if e == nil {
		return Counters{}
	}
	return e.counters
}

// Quarantined reports whether peer id is currently quarantined. Safe on
// nil (never).
func (e *Engine) Quarantined(id int) bool {
	if e == nil || id == Self {
		return false
	}
	return e.quarantined(e.peers[id])
}

// Vouched reports whether peer id is currently vouched with no standing
// strikes — the condition for its contributions to stay untainted. Safe
// on nil (never).
func (e *Engine) Vouched(id int) bool {
	if e == nil {
		return false
	}
	if id == Self {
		return true
	}
	r, ok := e.peers[id]
	return ok && e.vouched(r)
}

// quarantined is Quarantined on a record; nil (Self, or a peer never
// seen) is not quarantined.
func (e *Engine) quarantined(r *peerRec) bool {
	return r != nil && r.quarantinedUntil > e.seq
}

// vouched is Vouched on a slot's record, where nil is Self.
func (e *Engine) vouched(r *peerRec) bool {
	return r == nil || (r.vouchedUntil > e.seq && r.strikes == 0 && r.quarantinedUntil <= e.seq)
}

// tainted is the verdict on a surviving slot: demoted to the
// probabilistic path unless fresh and from a vouched peer (or Self).
func (e *Engine) tainted(s *slot) bool { return s.stale || !e.vouched(s.rec) }

// QuarantinedRects returns the number of rectangles currently in the
// decaying quarantine set. Safe on nil.
func (e *Engine) QuarantinedRects() int {
	if e == nil {
		return 0
	}
	return len(e.quar) - e.quarHead
}

// rec returns (creating if needed) peer id's reputation record.
func (e *Engine) rec(id int) *peerRec {
	r, ok := e.peers[id]
	if !ok {
		r = &peerRec{}
		e.peers[id] = r
	}
	return r
}

// convict quarantines peer id and forces its breaker open. Idempotent
// within one screen (a peer both conflicted and audit-failed counts
// once). A nil record is Self, which is never convicted.
func (e *Engine) convict(id int, r *peerRec, rep *Report) {
	if r == nil || r.convicted {
		return
	}
	r.convicted = true
	r.quarantinedUntil = e.seq + e.cfg.quarantineCycles
	r.vouchedUntil = 0
	r.strikes = 0
	e.counters.PeersQuarantined++
	rep.Convictions++
	e.breakers.ForceOpen(id)
}

// strike records one cross-validation strike against peer id, unvouching
// it; convictStrikes standing strikes convict. A nil record is Self,
// which is never struck.
func (e *Engine) strike(id int, r *peerRec, rep *Report) {
	if r == nil {
		return
	}
	r.vouchedUntil = 0
	r.strikes++
	if int(r.strikes) >= e.cfg.convictStrikes {
		e.convict(id, r, rep)
	}
}

// quarantineRect adds (or refreshes) one rectangle in the decaying
// quarantine set. The same pair of disagreeing regions resurfaces
// screen after screen under a sustained attack, so an already-known
// rectangle only has its decay horizon extended — it is not re-counted
// as newly quarantined area. The live set is capped at maxQuarRects by
// evicting the oldest entry.
func (e *Engine) quarantineRect(r geom.Rect, rep *Report) {
	until := e.seq + e.cfg.quarantineCycles
	if i, ok := e.quarIdx[r]; ok {
		if e.quar[i].until < until {
			e.quar[i].until = until
		}
		return
	}
	if len(e.quar)-e.quarHead >= maxQuarRects {
		oldest := &e.quar[e.quarHead]
		delete(e.quarIdx, oldest.r)
		e.quarHead++
		if !oldest.covered {
			e.left = append(e.left[:0], outlineOf(oldest))
			e.resurface()
		}
		if e.quarHead >= maxQuarRects {
			// One compaction per maxQuarRects evictions keeps eviction
			// amortised O(1) and the backing array at twice the cap.
			e.quar = e.quar[:copy(e.quar, e.quar[e.quarHead:])]
			e.quarHead = 0
			for i, q := range e.quar {
				e.quarIdx[q.r] = i
			}
		}
	}
	if len(e.quar) == e.quarHead || until < e.quarMinUntil {
		e.quarMinUntil = until
	}
	q := quarRect{r: r, until: until, born: e.born}
	e.born++
	q.covered = e.outlineAdmit(&q)
	e.quarIdx[r] = len(e.quar)
	e.quar = append(e.quar, q)
	rep.QuarantinedArea += r.Area()
	e.counters.QuarantinedArea += r.Area()
}

// outlineAdmit files a rectangle new to the ledger (dedup: equal to no
// live one) and reports whether it is covered. One pass over the outline
// decides both questions: a live rectangle containing q lies inside an
// outline member that contains q too, and only outline members can lose
// their place to q. The two cannot both happen — a member inside q would
// lie inside q's container — so the pass may compact as it goes.
func (e *Engine) outlineAdmit(q *quarRect) (covered bool) {
	w := 0
	for _, m := range e.outline {
		if m.r.ContainsRect(q.r) {
			return true
		}
		if q.r.ContainsRect(m.r) {
			e.quar[e.quarIdx[m.r]].covered = true
			continue
		}
		e.outline[w] = m
		w++
	}
	e.outline = e.outline[:w]
	e.outlineInsert(outlineOf(q))
	return false
}

// outlineInsert puts o at its place in the outline's order.
func (e *Engine) outlineInsert(o outRect) {
	at, _ := slices.BinarySearchFunc(e.outline, o, compareOutline)
	e.outline = slices.Insert(e.outline, at, o)
}

// resurface restores the outline once the outline members listed in e.left
// have gone from the ledger (a covered rectangle leaves without a trace:
// whatever it contains, its own cover contains). Only a covered rectangle
// inside one that left can have lost its cover, and it has unless a
// remaining member or another such rectangle still contains it: of a nest
// A ⊇ B ⊇ C that loses A, B resurfaces and C stays covered.
func (e *Engine) resurface() {
	for _, o := range e.left {
		at, _ := slices.BinarySearchFunc(e.outline, o, compareOutline)
		e.outline = slices.Delete(e.outline, at, at+1)
	}
	orphans := e.orphans[:0]
	for i := e.quarHead; i < len(e.quar); i++ {
		q := &e.quar[i]
		if q.covered && within(q.r, e.left) && !within(q.r, e.outline) {
			orphans = append(orphans, int32(i))
		}
	}
	e.orphans = orphans
	for _, i := range orphans {
		q := &e.quar[i]
		q.covered = false
		for _, j := range orphans {
			if j != i && e.quar[j].r.ContainsRect(q.r) {
				q.covered = true
				break
			}
		}
		if !q.covered {
			e.outlineInsert(outlineOf(q))
		}
	}
}

// within reports whether one of the rectangles contains r.
func within(r geom.Rect, in []outRect) bool {
	for k := range in {
		if in[k].r.ContainsRect(r) {
			return true
		}
	}
	return false
}

// decayQuarantine drops the expired quarantine rectangles, insertion
// order preserved. Survivors keep their place — and their index — up to
// the first expired entry; only the ones behind it move.
func (e *Engine) decayQuarantine() {
	if e.quarHead == len(e.quar) || e.seq < e.quarMinUntil {
		return
	}
	w := e.quarHead
	minUntil := int64(math.MaxInt64)
	e.left = e.left[:0]
	for i := e.quarHead; i < len(e.quar); i++ {
		q := e.quar[i]
		if q.until <= e.seq {
			delete(e.quarIdx, q.r)
			if !q.covered {
				e.left = append(e.left, outlineOf(&q))
			}
			continue
		}
		if q.until < minUntil {
			minUntil = q.until
		}
		if w != i {
			e.quar[w] = q
			e.quarIdx[q.r] = w
		}
		w++
	}
	e.quar = e.quar[:w]
	e.quarMinUntil = minUntil
	if w == e.quarHead {
		e.quar, e.quarHead = e.quar[:0], 0
	}
	if len(e.left) > 0 {
		e.resurface()
	}
}

// auditCost prices one audit in broadcast slots.
func (e *Engine) auditCost(nPOIs int) int64 {
	per := int64(e.cfg.auditPOIsPerSlot)
	return e.cfg.auditBaseSlots + (int64(nPOIs)+per-1)/per
}

// claimHonest re-verifies one claim against the ground truth: the
// claimed POI set must be exactly the truth restricted to the claimed
// region (same IDs, same positions — a peer claiming complete knowledge
// of VR must know precisely its contents).
func claimHonest(vr geom.Rect, claimed, truth []broadcast.POI) bool {
	if len(claimed) != len(truth) {
		return false
	}
	// Both sets are small (one cached region); quadratic matching avoids
	// imposing an ordering contract on the oracle.
	for _, c := range claimed {
		found := false
		for _, t := range truth {
			if c == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// claim is one distinct POI that some slot lists inside its own region.
type claim struct {
	poi      broadcast.POI
	claimers int32 // distinct slots that list it inside their region
	last     int32 // the latest of them: a POI listed twice counts once
	carried  bool  // an untainted result of this screen carries it (judge)
}

// coverage is one screen's claim table: every distinct POI that a slot
// lists inside its own region, in first-listing order, and for each slot
// the claims it makes. A claim is the whole POI value compared with ==,
// so one ID at two positions is two claims and the sign of a zero is
// ignored; a NaN position is inside no region and never gets here. The
// hash table is keyed on the ID alone, which puts every claim of one ID
// in one probe run (carries), and is sized from the screen's POI count,
// never from the capacity it has grown to, so nothing about a screen
// depends on what the engine screened before.
type coverage struct {
	claims []claim
	table  []int32 // open addressing: index into claims + 1, 0 is free
	shift  uint    // 64 - log2(len(table))
	// by[off[i]:off[i+1]] are slot i's claims, as indices into claims.
	off []int32
	by  []int32
}

// reset empties the table and sizes it for at most pois claims at a load
// of one half or less.
func (c *coverage) reset(pois int) {
	c.claims, c.off, c.by = c.claims[:0], c.off[:0], c.by[:0]
	log := bits.Len(uint(2 * pois))
	if size := 1 << log; cap(c.table) < size {
		c.table = make([]int32, size)
	} else {
		c.table = c.table[:size]
		clear(c.table)
	}
	c.shift = uint(64 - log)
}

// home is where the probe run of id starts.
func (c *coverage) home(id int64) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> c.shift)
}

// add records that slot i lists p inside its region. Slots are added in
// index order, so a claim's last claimer tells whether i already counts.
func (c *coverage) add(i int32, p broadcast.POI) {
	mask := len(c.table) - 1
	for h := c.home(p.ID); ; h = (h + 1) & mask {
		t := c.table[h] - 1
		if t < 0 {
			c.table[h] = int32(len(c.claims)) + 1
			c.by = append(c.by, int32(len(c.claims)))
			c.claims = append(c.claims, claim{poi: p, claimers: 1, last: i})
			return
		}
		if cl := &c.claims[t]; cl.poi == p {
			if cl.last != i {
				cl.last = i
				cl.claimers++
				c.by = append(c.by, t)
			}
			return
		}
	}
}

// of returns slot i's claims.
func (c *coverage) of(i int32) []int32 { return c.by[c.off[i]:c.off[i+1]] }

// carries reports whether an untainted result of this screen carries a
// POI with this ID, at whatever position.
func (c *coverage) carries(id int64) bool {
	mask := len(c.table) - 1
	for h := c.home(id); ; h = (h + 1) & mask {
		t := c.table[h] - 1
		if t < 0 {
			return false
		}
		if cl := &c.claims[t]; cl.carried && cl.poi.ID == id {
			return true
		}
	}
}

// slotGrid locates a point among the claiming slots' regions: a uniform
// grid over their bounding box whose cells list, ascending, the slots
// whose region meets the cell. The column of a coordinate is a monotone
// function of it, so a point inside a region falls in one of the
// region's cells whatever the rounding does.
type slotGrid struct {
	minX, minY float64
	perX, perY float64 // cells per unit length
	side       int32   // cells per axis
	off        []int32 // cell c lists slots[off[c]:off[c+1]]
	slots      []int32
	spans      []cellSpan
}

// cellSpan is the block of cells one slot's region meets.
type cellSpan struct{ slot, x0, x1, y0, y1 int32 }

// cell maps an offset from the grid's low edge to a column or row. An
// unbounded box has per == 0 and puts everything in cell 0.
func (g *slotGrid) cell(d, per float64) int32 {
	v := d * per
	switch {
	case !(v >= 1): // also NaN (Inf · 0)
		return 0
	case v >= float64(g.side):
		return g.side - 1
	}
	return int32(v)
}

// build indexes the claiming slots, about one cell per slot.
func (g *slotGrid) build(slots []slot) {
	n := 0
	var box geom.Rect
	for i := range slots {
		s := &slots[i]
		if !s.claims() {
			continue
		}
		if n == 0 {
			box = s.vr
		}
		box.Min.X, box.Min.Y = min(box.Min.X, s.vr.Min.X), min(box.Min.Y, s.vr.Min.Y)
		box.Max.X, box.Max.Y = max(box.Max.X, s.vr.Max.X), max(box.Max.Y, s.vr.Max.Y)
		n++
	}
	g.side = int32(math.Ceil(math.Sqrt(float64(n))))
	g.minX, g.minY = box.Min.X, box.Min.Y
	g.perX, g.perY = float64(g.side)/box.Width(), float64(g.side)/box.Height()

	// Counting sort of (cell, slot): cell c's count goes to off[c+2], the
	// running sum turns off[c+1] into c's write cursor, and filling
	// advances it to c's end — the start of c+1.
	cells := int(g.side * g.side)
	g.off = append(g.off[:0], make([]int32, cells+2)...)
	g.spans = g.spans[:0]
	for i := range slots {
		s := &slots[i]
		if !s.claims() {
			continue
		}
		sp := cellSpan{slot: int32(i),
			x0: g.cell(s.vr.Min.X-g.minX, g.perX), x1: g.cell(s.vr.Max.X-g.minX, g.perX),
			y0: g.cell(s.vr.Min.Y-g.minY, g.perY), y1: g.cell(s.vr.Max.Y-g.minY, g.perY)}
		g.spans = append(g.spans, sp)
		for y := sp.y0; y <= sp.y1; y++ {
			row := g.off[y*g.side+sp.x0+2 : y*g.side+sp.x1+3]
			for k := range row {
				row[k]++
			}
		}
	}
	for c := 2; c < len(g.off); c++ {
		g.off[c] += g.off[c-1]
	}
	g.slots = append(g.slots[:0], make([]int32, g.off[cells+1])...)
	for _, sp := range g.spans {
		for y := sp.y0; y <= sp.y1; y++ {
			row := g.off[y*g.side+sp.x0+1 : y*g.side+sp.x1+2]
			for k := range row {
				g.slots[row[k]] = sp.slot
				row[k]++
			}
		}
	}
	g.off = g.off[:cells+1]
}

// near returns the slots listed in the cell of p, a point inside the
// grid's box: every claiming slot whose closed region contains p is one.
func (g *slotGrid) near(p geom.Point) []int32 {
	c := g.cell(p.Y-g.minY, g.perY)*g.side + g.cell(p.X-g.minX, g.perX)
	return g.slots[g.off[c]:g.off[c+1]]
}

// containing counts the slots of near whose closed region contains p.
// Which way each comparison goes is a coin flip per slot, so the count is
// summed from the four outcomes rather than branched on.
func containing(slots []slot, near []int32, p geom.Point) int32 {
	n := int32(0)
	for _, i := range near {
		r := &slots[i].vr
		n += bit(p.X >= r.Min.X) & bit(p.X <= r.Max.X) & bit(p.Y >= r.Min.Y) & bit(p.Y <= r.Max.Y)
	}
	return n
}

func bit(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Screen runs one query's trust pass over the collected contributions:
// drops quarantined peers, cross-validates overlapping VRs, spot-audits
// a seeded sample against the oracle within the slot budget, subtracts
// quarantined rectangles, and marks every surviving piece with its taint
// verdict. An audit-only contribution takes part in the audits alone.
// budget is the query's remaining deadline budget in slots (negative means
// unlimited); audits that do not fit are skipped.
//
// Aliasing: the returned slice is engine scratch, valid until the next
// Screen. A Result's POIs are the contribution's own slice when the piece
// is the whole region and keeps every POI, and cut from the arena
// otherwise: valid until the next Screen, or a lent arena's rewind
// (LendArena). Screen never writes to a contribution.
//
// Safe on nil: contributions pass through untainted and unscreened (the
// defense is off; this is the seed behavior).
func (e *Engine) Screen(contribs []Contribution, oracle Oracle, budget int64) ([]Result, Report) {
	if e == nil {
		out := make([]Result, 0, len(contribs))
		for _, c := range contribs {
			out = append(out, Result{Peer: c.Peer, VR: c.VR, POIs: c.POIs, Tainted: c.Stale})
		}
		return out, Report{}
	}
	e.seq++
	if !e.lent {
		e.arena.Rewind()
	}
	var rep Report
	e.decayQuarantine()

	// Drop contributions from quarantined peers outright.
	slots := e.slots[:0]
	for i := range contribs {
		c := &contribs[i]
		var r *peerRec
		if c.Peer != Self {
			r = e.rec(c.Peer)
			if e.quarantined(r) {
				continue
			}
		}
		slots = append(slots, slot{vr: c.VR, peer: c.Peer, rec: r, ci: int32(i), stale: c.Stale, auditOnly: c.AuditOnly})
	}
	e.slots = slots

	e.detectConflicts(contribs)
	e.applyVerdicts(&rep)
	e.audit(contribs, oracle, budget, &rep)
	e.judge(&rep)
	return e.assemble(contribs), rep
}

// detectConflicts is the pure half of cross-validation: it fills
// e.conflicts with every pair of slots, in (i, j) order, whose regions
// strictly overlap, whose peers differ and whose claims disagree on the
// overlap. It reads the contributions and touches no reputation, so what
// it finds cannot depend on a verdict — verdicts are applied afterwards,
// in the order found.
//
// Two claims disagree on their overlap exactly when one lists, inside its
// own region, a POI whose position the other's closed region contains but
// whose value the other does not list (the closed overlap is the
// intersection of the closed regions). So detection asks once per
// distinct claimed POI whether every region that contains it also claims
// it; when all do — an honest neighbourhood — no pair can disagree, and
// that is the whole cost. A POI that some containing region does not
// claim is itself the witness against every (claimer, non-claimer) pair
// of its containers that are of different peers and strictly overlap.
func (e *Engine) detectConflicts(contribs []Contribution) {
	e.conflicts = e.conflicts[:0]
	slots, cv := e.slots, &e.cover
	listed := 0
	for i := range slots {
		if slots[i].claims() {
			listed += len(contribs[slots[i].ci].POIs)
		}
	}
	cv.reset(listed)
	for i := range slots {
		s := &slots[i]
		cv.off = append(cv.off, int32(len(cv.by)))
		if !s.claims() {
			continue
		}
		for _, p := range contribs[s.ci].POIs {
			if s.vr.Contains(p.Pos) {
				cv.add(int32(i), p)
			}
		}
	}
	cv.off = append(cv.off, int32(len(cv.by)))
	if len(cv.claims) == 0 {
		return
	}

	e.grid.build(slots)
	pairs := e.pairs[:0]
	for t := range cv.claims {
		cl := &cv.claims[t]
		near := e.grid.near(cl.poi.Pos)
		if containing(slots, near, cl.poi.Pos) > cl.claimers {
			pairs = e.appendWitnessed(pairs, int32(t), near)
		}
	}
	e.pairs = pairs
	// One pair can have many witnesses, and claims come in no pair order.
	slices.Sort(pairs)
	for k, key := range pairs {
		if k > 0 && key == pairs[k-1] {
			continue
		}
		i, j := int32(key>>32), int32(uint32(key))
		overlap, _ := slots[i].vr.Intersect(slots[j].vr)
		e.conflicts = append(e.conflicts, conflict{i: i, j: j, overlap: overlap})
	}
}

// appendWitnessed appends, as i<<32 | j with i < j, the conflicting pairs
// claim t witnesses among the slots of near whose region contains it: one
// that lists it against one that does not, of different peers (two regions
// of one cache cannot witness each other), strictly overlapping.
func (e *Engine) appendWitnessed(dst []uint64, t int32, near []int32) []uint64 {
	// The containing slots, claimers in front.
	inside, k, p := e.inside[:0], 0, e.cover.claims[t].poi.Pos
	for _, i := range near {
		if !e.slots[i].vr.Contains(p) {
			continue
		}
		inside = append(inside, i)
		if slices.Contains(e.cover.of(i), t) {
			inside[len(inside)-1], inside[k] = inside[k], i
			k++
		}
	}
	e.inside = inside
	for _, i := range inside[:k] {
		a := &e.slots[i]
		for _, j := range inside[k:] {
			b := &e.slots[j]
			if _, strictly := a.vr.Intersect(b.vr); strictly && a.peer != b.peer {
				dst = append(dst, uint64(min(i, j))<<32|uint64(max(i, j)))
			}
		}
	}
	return dst
}

// applyVerdicts rules on the detected conflicts in (i, j) order; a
// verdict changes who is vouched, so the order is part of the result.
func (e *Engine) applyVerdicts(rep *Report) {
	for _, cf := range e.conflicts {
		a, b := &e.slots[cf.i], &e.slots[cf.j]
		// Third verdict: a disagreement involving a stale claimant is
		// expected under churn — the stale side is already demoted, so
		// amnesty both and leave reputations untouched. Counting it as
		// a byzantine conflict would let honest churn strike honest
		// peers into quarantine.
		if a.stale || b.stale {
			rep.StaleConflicts++
			e.counters.StaleVerdicts++
			continue
		}
		rep.Conflicts++
		e.counters.ConflictsDetected++
		// An audit-backed vouch outweighs an unvouched accuser: when
		// exactly one claimant is vouched, the other one lied (a
		// byzantine peer can never be vouched), so strike it alone and
		// let the vouched claim stand. Otherwise the engine cannot
		// tell who lied: quarantine the overlap out of the merge and
		// strike both claimants.
		av, bv := e.vouched(a.rec), e.vouched(b.rec)
		switch {
		case av && !bv:
			e.strike(b.peer, b.rec, rep)
		case bv && !av:
			e.strike(a.peer, a.rec, rep)
		default:
			e.quarantineRect(cf.overlap, rep)
			e.strike(a.peer, a.rec, rep)
			e.strike(b.peer, b.rec, rep)
		}
	}
}

// audit runs the spot audits: seeded contribution-level sampling, priced
// in slots against the deadline budget, capped per query. The audit runs
// on the *original* claim — before quarantine subtraction, and never on
// a piece the receiver's IR repair cut from it: under the always-material
// adversary model this makes a sampled lie impossible to miss, which is
// what keeps byzantine peers permanently unvouchable.
func (e *Engine) audit(contribs []Contribution, oracle Oracle, budget int64, rep *Report) {
	audits := 0
	for i := range e.slots {
		s := &e.slots[i]
		// Stale contributions are skipped before the sampling draw: the
		// claim predates the current epoch, so re-verifying it against
		// current truth would convict an honest peer for churn. Repair
		// pieces likewise: a fragment that matches the truth says nothing
		// about the claim it was cut from. A peer convicted earlier in
		// this screen is quarantined by now.
		if s.rec == nil || s.stale || contribs[s.ci].Repaired || e.quarantined(s.rec) {
			continue
		}
		if audits >= e.cfg.maxAuditsPerQuery {
			break
		}
		if e.rng.Float64() >= e.cfg.AuditRate {
			continue
		}
		c := &contribs[s.ci]
		cost := e.auditCost(len(c.POIs))
		if budget >= 0 && rep.AuditSlots+cost > budget {
			continue // cannot afford within the deadline
		}
		audits++
		rep.Audits++
		rep.AuditSlots += cost
		e.counters.AuditsRun++
		e.counters.AuditSlots += cost
		truth := oracle(c.VR)
		if claimHonest(c.VR, c.POIs, truth) {
			// Vouch and forgive standing strikes: the ground truth just
			// testified for the peer, so conflicts it lost to unvouched
			// accusers no longer count against it.
			s.rec.vouchedUntil = e.seq + e.cfg.vouchCycles
			s.rec.strikes = 0
			continue
		}
		rep.AuditFailures++
		e.counters.AuditFailures++
		e.convict(s.peer, s.rec, rep)
		rep.QuarantinedArea += c.VR.Area()
		e.counters.QuarantinedArea += c.VR.Area()
	}
}

// judge runs once reputations have stopped moving, so every slot's
// verdict is settled: dropped (its peer was convicted this screen),
// tainted or trusted. It counts the tainted peers and gathers what
// assembly needs from the whole set: which claims untainted results will
// carry (cross-pool dedup) and the quarantine rectangles that can reach a
// tainted contribution.
func (e *Engine) judge(rep *Report) {
	e.holes = e.holes[:0]
	var reach geom.Rect // bounding box of the tainted regions
	anyTainted, selfTainted := false, false
	for i := range e.slots {
		s := &e.slots[i]
		if e.quarantined(s.rec) || s.auditOnly {
			continue
		}
		if !e.tainted(s) {
			// An untainted region is never subtracted from, so its result
			// carries exactly the POIs it lists inside the region: its claims.
			for _, t := range e.cover.of(int32(i)) {
				e.cover.claims[t].carried = true
			}
			continue
		}
		switch {
		case s.rec == nil:
			if !selfTainted {
				selfTainted = true
				rep.Tainted++
			}
		case !s.rec.counted:
			s.rec.counted = true
			rep.Tainted++
		}
		switch {
		case s.vr.Empty(): // yields no piece
		case !anyTainted:
			anyTainted, reach = true, s.vr
		default:
			reach = reach.Union(s.vr)
		}
	}
	for i := range e.slots {
		if r := e.slots[i].rec; r != nil {
			r.convicted, r.counted = false, false
		}
	}
	if !anyTainted {
		return
	}
	for k := range e.outline {
		if r := e.outline[k].r; r.Intersects(reach) {
			e.holes = append(e.holes, r)
		}
	}
}

// assemble emits the surviving pieces in contribution order: convicted
// peers and audit-only claims drop out entirely; everything else is
// reduced by the quarantine set and marked with its taint verdict.
func (e *Engine) assemble(contribs []Contribution) []Result {
	out := e.out[:0]
	for i := range e.slots {
		s := &e.slots[i]
		c := &contribs[s.ci]
		if e.quarantined(s.rec) || s.auditOnly || c.VR.Empty() {
			continue
		}
		tainted := e.tainted(s)
		// Rectangle quarantine is defense-in-depth for *unvouched*
		// claims. A vouched claim is audit-backed, so it stands whole:
		// subtracting disputed rectangles from the trusted population
		// would let an attacker pulverize the honest MVR merely by
		// disputing it (the coverage-collapse failure mode). A hole that
		// only touches a piece leaves it whole.
		e.cut.Reset(c.VR)
		if tainted {
			e.cut.CutAll(e.holes)
		}
		pieces := e.cut.Pieces()
		out = e.appendPieces(out, c, tainted, pieces)
	}
	e.out = out
	return out
}

// appendPieces appends one Result per piece of c. A POI belongs to the
// first piece that contains it (closed) — the tiebreak that keeps a
// boundary POI from being duplicated across adjacent pieces — and a
// tainted piece drops every POI an untainted result already vouches for:
// core's candidate dedup assumes one POI ID appears in only one trust
// pool, and the untrusted copy adds nothing. A piece that keeps all of
// c.POIs shares the slice; otherwise the pieces of c share one arena run.
func (e *Engine) appendPieces(out []Result, c *Contribution, tainted bool, pieces []geom.Rect) []Result {
	if len(pieces) == 0 {
		return out // the quarantine swallowed the whole region
	}
	owner, count := e.owner[:0], e.count[:0]
	for range pieces {
		count = append(count, 0)
	}
	kept := 0
	for _, p := range c.POIs {
		o := int32(-1)
		if !tainted || !e.cover.carries(p.ID) {
			for k, piece := range pieces {
				if piece.Contains(p.Pos) {
					o = int32(k)
					count[k]++
					kept++
					break
				}
			}
		}
		owner = append(owner, o)
	}
	e.owner, e.count = owner, count

	if len(pieces) == 1 && kept == len(c.POIs) {
		return append(out, Result{Peer: c.Peer, VR: pieces[0], POIs: c.POIs, Tainted: tainted})
	}
	pois, lo := e.arena.Partition(c.POIs, owner, count), int32(0)
	for k, piece := range pieces {
		r := Result{Peer: c.Peer, VR: piece, Tainted: tainted}
		if hi := count[k]; hi > lo {
			r.POIs = pois[lo:hi:hi]
		}
		out, lo = append(out, r), count[k]
	}
	return out
}
