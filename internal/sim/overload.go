package sim

import (
	"math"
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/p2p"
)

// The flash-crowd and overload-control plane (DESIGN.md §16). Four
// cooperating mechanisms keep a hotspot burst from collapsing the
// sharing layer into the classic metastable state (every query
// retrying, every peer saturated, nobody answered):
//
//   - a seeded crowd generator injects a spatially and temporally
//     concentrated extra query load (the disturbance);
//   - peers bound their per-tick service queues and push back with
//     explicit BUSY frames (p2p.ServiceQueue, wire.Busy);
//   - queriers throttle themselves: per-host admission token buckets, a
//     global per-tick retry budget, and a load governor that watches the
//     answered-in-budget ratio and sheds one-shot peer-gathers while the
//     system is underwater;
//   - co-located queries coalesce onto one peer-gather instead of each
//     re-asking the same saturated neighborhood.
//
// Shedding is sound by construction: a shed or admission-denied query
// never fabricates an answer — it falls back to its own cache plus the
// broadcast channel, where every result is exact (the wireless broadcast
// is the paper's ground-truth distribution channel). Overload control
// trades peer-channel load for broadcast latency, never correctness.
//
// Determinism: every decision here is either a pure function of
// deterministic per-tick state (queues, buckets, the governor's ratio)
// or drawn from the dedicated crowd stream (crowdSeedSalt). All hooks
// run in Step's launch loop or the pipeline's prepare stage, one query at
// a time in draw order, so armed runs are reproducible per seed, and the
// zero-knob world never constructs this state at all.

// CrowdKnobs configure the flash-crowd workload generator (see LayerKnobs
// for the tags).
type CrowdKnobs struct {
	// CrowdRate arms the flash-crowd workload generator (DESIGN.md §16):
	// the mean number of extra queries per minute, system-wide, that the
	// hotspot injects at the peak of its temporal burst. Zero (the
	// default) generates no crowd — no crowd stream exists and every
	// output is bit-identical to a build without the layer. Nonzero
	// launches additional queries from hosts inside the hotspot disk
	// during the burst window, Poisson-modulated by a smooth ramp
	// (sin², peaking mid-window), from a dedicated seeded stream so the
	// legacy query draws are never perturbed.
	CrowdRate float64 `json:"crowd_rate,omitempty" flag:"crowd-rate" usage:"flash-crowd peak query rate per minute injected inside the hotspot (0 = no crowd)"`
	// CrowdRadiusMiles is the radius of the hotspot disk, which is
	// centred on the service area. Defaults to AreaMiles/10 when the
	// crowd is armed.
	CrowdRadiusMiles float64 `json:"crowd_radius_miles,omitempty" flag:"crowd-radius" usage:"hotspot disk radius in miles (0 = area/10 when the crowd is armed)"`
	// CrowdStartSec is when the burst window opens (simulated seconds);
	// zero selects mid-run when the crowd is armed. CrowdDurationSec is
	// the window length; zero selects 10% of the run.
	CrowdStartSec    float64 `json:"crowd_start_sec,omitempty" flag:"crowd-start" usage:"burst window start in simulated seconds (0 = mid-run)"`
	CrowdDurationSec float64 `json:"crowd_duration_sec,omitempty" flag:"crowd-duration" usage:"burst window length in seconds (0 = 10% of the run)"`
}

// OverloadKnobs are the demand-side controls; any one of them arms the
// plane (Params.OverloadEnabled).
type OverloadKnobs struct {
	// PeerQueueCap arms peer-side backpressure (DESIGN.md §16): each
	// peer serves at most this many cache requests per tick; the next
	// band is refused with an explicit BUSY frame on the wire, and
	// saturation beyond that is shed silently (p2p.ServiceQueue). BUSY
	// replies and queue drops are never breaker strikes — a busy peer is
	// not a broken peer. Zero (the default) leaves service unbounded.
	PeerQueueCap int `json:"peer_queue_cap,omitempty" flag:"queue-cap" usage:"per-peer per-tick service queue capacity; overflow answers BUSY (0 = unbounded)"`
	// RetryBudget caps retry amplification: the total number of request
	// re-broadcasts (across every query) one tick may spend. A query
	// whose backoff schedule would exceed the exhausted budget stops
	// retrying and proceeds with the replies it has. Zero (the default)
	// leaves retries unbudgeted.
	RetryBudget int `json:"retry_budget,omitempty" flag:"retry-budget" usage:"per-tick system-wide request re-broadcast budget (0 = unbudgeted)"`
	// AdmissionRate arms per-MH admission token buckets: each host
	// accrues this many query tokens per simulated second (deterministic
	// refill, no randomness) up to AdmissionBurst. A one-shot query
	// issued from an empty bucket is shed to the broadcast-only path
	// (Lemma 3.2 / on-air fallback — degraded, never wrong) instead of
	// gathering peers. Continuous-subscription maintenance is exempt:
	// safe-region hits are nearly free. Zero (the default) admits
	// everything.
	AdmissionRate float64 `json:"admission_rate,omitempty" flag:"admission-rate" usage:"per-MH admission tokens accrued per second; empty buckets shed to broadcast (0 = admit all)"`
	// AdmissionBurst is the token-bucket depth; defaults to 4 when
	// AdmissionRate is set.
	AdmissionBurst int `json:"admission_burst,omitempty" flag:"admission-burst" usage:"admission token-bucket depth (0 = default 4 when -admission-rate > 0)"`
	// GovernorFloor arms the load governor: a windowed answered-in-budget
	// ratio (DeadlineSlots plus one broadcast cycle, the availability
	// metric Stats.AnsweredInBudget counts) is tracked per tick, and when
	// it falls below this floor (0..1) the governor sheds one-shot queries
	// to the broadcast-only path until the ratio recovers. Priority-aware:
	// continuous subscriptions keep their service. Zero (the default)
	// means the governor never exists.
	GovernorFloor float64 `json:"governor_floor,omitempty" flag:"governor-floor" max:"1" usage:"arm the load governor: answered-in-budget ratio below which it sheds one-shots [0, 1] (0 = no governor)"`
	// CoalesceRadiusMiles arms cross-MH query coalescing: a query whose
	// origin lies within this distance of an earlier same-tick query
	// reuses that query's screened peer gather instead of broadcasting its
	// own request — one gather serves the co-located crowd. Soundness is unchanged: the recipient still verifies against
	// the shared regions and falls back to the channel when coverage is
	// insufficient. Zero (the default) disables coalescing.
	CoalesceRadiusMiles float64 `json:"coalesce_radius_miles,omitempty" flag:"coalesce-radius" usage:"co-located same-tick queries within this many miles share one peer gather (0 = off)"`
}

// crowdSeedSalt seeds the flash-crowd stream: how many crowd queries
// fire each tick, and which hotspot hosts they hit.
// Decorrelated from every other stream so arming the crowd knobs never
// perturbs movement, legacy query launching, the POI field, or the
// fault draws. (The crowd queries themselves then consume world-stream
// draws — k, window shapes — exactly like legacy queries do; crowd-off
// runs make none of those draws.)
const crowdSeedSalt = 0x63727764 // "crwd"

// shedCause classifies why a query's peer-gather was shed.
type shedCause int

const (
	shedNone shedCause = iota
	// shedAdmission: the host's admission token bucket was empty.
	shedAdmission
	// shedGovernor: the load governor was engaged and demoted the
	// one-shot query to the broadcast-only path.
	shedGovernor
)

// String renders the trace label; shedNone renders empty so unshed
// queries omit the field (zero-knob byte identity).
func (c shedCause) String() string {
	switch c {
	case shedAdmission:
		return "admission"
	case shedGovernor:
		return "governor"
	default:
		return ""
	}
}

// Governor tuning. The governor engages when the EWMA answered-in-budget
// ratio drops below Params.GovernorFloor and disengages once it recovers
// past the floor plus a hysteresis band (capped at 1 so a floor of 1.0
// can still disengage). The EWMA decay keeps roughly the last handful of
// ticks in view: fast enough to catch a crowd onset, slow enough not to
// flap on a single bad tick.
const (
	govDecay      = 0.7
	govHysteresis = 0.05
)

// maxCoalesceDonors bounds the per-tick donor table: only this many
// successful gathers per tick offer their screened peer sets for reuse.
// Enough for a hotspot (donors and recipients are co-located, so a few
// donors cover the crowd), small enough to bound the deep-copy cost.
const maxCoalesceDonors = 16

// coalDonor is one tick-scoped gather snapshot: the screened peer set of
// a completed full-protocol collection, deep-copied so later cache
// mutations cannot reach it, offered to co-located queries.
type coalDonor struct {
	origin    geom.Point
	relevance geom.Rect
	nPeers    int
	peers     []core.PeerData
	pois      []broadcast.POI // backing storage for the POI copies
}

// overloadState is the World's overload plane. Nil unless a crowd or
// overload knob is armed — the zero-knob world pays no branches beyond
// the nil checks and makes zero extra draws.
type overloadState struct {
	// Crowd generator (nil crowdRng unless CrowdEnabled).
	crowdRng *rand.Rand
	center   geom.Point
	radius   float64
	startSec float64
	durSec   float64
	rate     float64 // crowd queries per minute at the burst peak
	crowdIDs []int   // per-tick hotspot membership buffer

	// Peer-side backpressure (nil unless PeerQueueCap > 0).
	queue *p2p.ServiceQueue

	// Querier-side admission (nil tokens unless AdmissionRate > 0).
	admRate  float64 // tokens per second
	admBurst float64
	tokens   []float64

	// Global per-tick retry budget (0 = unlimited).
	retryBudget int
	retryTokens int

	// Load governor (floor 0 = none).
	floor   float64
	engaged bool
	ewmaQ   float64 // decayed counted one-shot queries
	ewmaA   float64 // decayed answered-in-budget among them
	tickQ   int64   // current tick's counted one-shot queries
	tickA   int64
	// postCrowdEngaged counts the ticks the governor stayed engaged
	// after the crowd window closed — the soak harness's recovery probe
	// (metastability means this never stops growing).
	postCrowdEngaged int64

	// Cross-MH coalescing (radius 0 disables; donors is the per-tick
	// table, entries reuse their buffers across ticks).
	coalRadius float64
	donors     [maxCoalesceDonors]coalDonor
	nDonors    int
}

// newOverloadState builds the overload plane, or returns nil when every
// crowd and overload knob is off.
func newOverloadState(p Params) *overloadState {
	if !p.CrowdEnabled() && !p.OverloadEnabled() {
		return nil
	}
	o := &overloadState{
		admRate:     p.AdmissionRate,
		retryBudget: p.RetryBudget,
		retryTokens: p.RetryBudget,
		floor:       p.GovernorFloor,
		coalRadius:  p.CoalesceRadiusMiles,
	}
	if p.CrowdEnabled() {
		o.crowdRng = rand.New(rand.NewSource(p.Seed ^ crowdSeedSalt))
		o.center = geom.Pt(p.AreaMiles/2, p.AreaMiles/2)
		o.radius = p.CrowdRadiusMiles
		o.startSec = p.CrowdStartSec
		o.durSec = p.CrowdDurationSec
		o.rate = p.CrowdRate
	}
	if p.PeerQueueCap > 0 {
		o.queue = p2p.NewServiceQueue(p.PeerQueueCap)
	}
	if p.AdmissionRate > 0 {
		// Buckets start full: steady-state load is admitted immediately,
		// only a burst above the refill rate drains a bucket.
		o.admBurst = float64(p.AdmissionBurst)
		o.tokens = make([]float64, p.MHNumber)
		for i := range o.tokens {
			o.tokens[i] = o.admBurst
		}
	}
	return o
}

// crowdActive reports whether nowSec falls inside the crowd window.
func (o *overloadState) crowdActive(nowSec float64) bool {
	return o.crowdRng != nil && nowSec > o.startSec && nowSec <= o.startSec+o.durSec
}

// tickReset runs once per tick on the simulation goroutine, before any
// query: peer queues empty, admission buckets refill, the retry budget
// replenishes, the donor table clears, and the governor folds the last
// tick's answered-in-budget window into its EWMA and re-decides
// engagement.
func (w *World) tickReset(dt float64) {
	o := w.ovl
	if o == nil {
		return
	}
	if o.queue != nil {
		o.queue.Reset()
	}
	if o.tokens != nil {
		refill := o.admRate * dt
		for i := range o.tokens {
			t := o.tokens[i] + refill
			if t > o.admBurst {
				t = o.admBurst
			}
			o.tokens[i] = t
		}
	}
	o.retryTokens = o.retryBudget
	o.nDonors = 0
	if o.floor == 0 {
		return
	}
	o.governTick()
	if o.engaged {
		if w.counted() {
			w.stats.GovernorEngagedTicks++
		}
		if o.crowdRng != nil && w.nowSec > o.startSec+o.durSec {
			o.postCrowdEngaged++
		}
	}
}

// governTick folds the last tick's answered-in-budget window into the
// governor's EWMA and re-decides engagement.
func (o *overloadState) governTick() {
	o.ewmaQ = o.ewmaQ*govDecay + float64(o.tickQ)
	o.ewmaA = o.ewmaA*govDecay + float64(o.tickA)
	o.tickQ, o.tickA = 0, 0
	if o.ewmaQ >= 1 {
		ratio := o.ewmaA / o.ewmaQ
		if o.engaged {
			off := o.floor + govHysteresis
			if off > 1 {
				off = 1
			}
			// Disengage on recovery past the hysteresis band, or when
			// the remembered miss mass has decayed below half a query:
			// with a floor at 1.0 the ratio approaches 1 only
			// asymptotically, and without the second clause the governor
			// would stay latched ~100 ticks after the last miss.
			if ratio >= off || o.ewmaQ-o.ewmaA < 0.5 {
				o.engaged = false
			}
		} else if ratio < o.floor {
			o.engaged = true
		}
	} else if o.engaged && o.ewmaQ < 0.5 {
		// The load vanished entirely; nothing left to govern.
		o.engaged = false
	}
}

// noteBudget feeds the governor's per-tick answered-in-budget window.
func (o *overloadState) noteBudget(ok bool) {
	o.tickQ++
	if ok {
		o.tickA++
	}
}

// takeRetry draws one retry token from the global per-tick budget.
// Returns false when the budget is configured and exhausted — the
// collection stops retrying and proceeds with the replies it has.
// A standing re-verification is priority traffic and bypasses the budget.
func (o *overloadState) takeRetry(standing bool) bool {
	if o == nil || o.retryBudget <= 0 || standing {
		return true
	}
	if o.retryTokens > 0 {
		o.retryTokens--
		return true
	}
	return false
}

// govSteering reports whether the load governor is armed — it steers by
// the answered-in-budget ratio, so governed runs account availability
// even without a channel-impairment knob.
func (w *World) govSteering() bool {
	return w.ovl != nil && w.ovl.floor > 0
}

// admitOneShot is the querier-side gate in front of a one-shot query's
// peer-gather: the host's admission token bucket first, then the load
// governor. A denied query sheds its P2P phase — it answers from its own
// cache plus the broadcast channel (exact, just slower), which is the
// soundness contract every shed path honors. A standing re-verification
// is priority traffic: always admitted, consuming no token.
func (w *World) admitOneShot(idx int, standing bool) (bool, shedCause) {
	o := w.ovl
	if o == nil || standing {
		return true, shedNone
	}
	if o.tokens != nil && o.tokens[idx] < 1 {
		if w.counted() {
			w.stats.AdmissionDenied++
			w.stats.Shed++
		}
		return false, shedAdmission
	}
	if o.engaged {
		// Governor shed: no token is consumed — the query never gathered.
		if w.counted() {
			w.stats.GovernorSheds++
			w.stats.Shed++
		}
		return false, shedGovernor
	}
	if o.tokens != nil {
		o.tokens[idx]--
	}
	return true, shedNone
}

// crowdDraw decides this tick's crowd load: the Poisson draw from the
// dedicated crowd stream (a sin² ramp over the window peaks the
// intensity mid-crowd), and the hotspot membership snapshot the launch
// loop picks hosts from. Zero draws outside the window.
func (w *World) crowdDraw(dt float64) int {
	o := w.ovl
	if o == nil || !o.crowdActive(w.nowSec) {
		return 0
	}
	frac := (w.nowSec - o.startSec) / o.durSec
	s := math.Sin(math.Pi * frac)
	mean := o.rate / 60 * dt * s * s
	n := mobility.Poisson(o.crowdRng, mean)
	if n == 0 {
		return 0
	}
	o.crowdIDs = w.net.AppendNeighbors(o.crowdIDs[:0], o.center, o.radius, -1)
	if len(o.crowdIDs) == 0 {
		// Nobody happens to be inside the hotspot this tick; the Poisson
		// draw stays consumed so the stream position is schedule-stable.
		return 0
	}
	return n
}

// crowdPick draws one crowd query's host from the crowd stream. Only
// valid after a positive crowdDraw in the same tick.
func (w *World) crowdPick() int {
	o := w.ovl
	idx := o.crowdIDs[o.crowdRng.Intn(len(o.crowdIDs))]
	o.crowdRng.Int63() // the kept type draw (typeState)
	return idx
}

// coalesceLookup scans the tick's donor table for a completed gather a
// query at q can reuse: origin within the coalescing radius and
// overlapping relevance rectangles. The reuse is sound
// because the donor's set is a truthful screened subset of the
// neighborhood's knowledge — the recipient still runs full verification
// against it, and anything the donor's slightly-offset gather missed
// only shrinks the merged region, degrading the recipient to the exact
// broadcast channel, never to a wrong answer. Nil on miss.
func (w *World) coalesceLookup(q geom.Point, relevance geom.Rect) *coalDonor {
	o := w.ovl
	if o == nil || o.coalRadius <= 0 {
		return nil
	}
	r2 := o.coalRadius * o.coalRadius
	for i := 0; i < o.nDonors; i++ {
		d := &o.donors[i]
		if d.origin.DistSq(q) <= r2 && d.relevance.Intersects(relevance) {
			return d
		}
	}
	return nil
}

// donates reports whether the gather in flight will donate its screened
// set to the tick's donor table.
func (w *World) donates() bool {
	o := w.ovl
	return o != nil && o.coalRadius > 0 && o.nDonors < maxCoalesceDonors
}

// coalesceDonate registers a completed gather's screened peer set in the
// donor table. The set is deep-copied (PeerData values and POI slices)
// because cache storage the originals alias mutates as later queries
// commit; the copy is immutable for the rest of the tick.
func (w *World) coalesceDonate(q geom.Point, relevance geom.Rect, peers []core.PeerData, nPeers int) {
	if !w.donates() {
		return
	}
	o := w.ovl
	d := &o.donors[o.nDonors]
	o.nDonors++
	d.origin, d.relevance, d.nPeers = q, relevance, nPeers
	total := 0
	for _, pd := range peers {
		total += len(pd.POIs)
	}
	if cap(d.pois) < total {
		d.pois = make([]broadcast.POI, 0, total)
	} else {
		d.pois = d.pois[:0]
	}
	d.peers = d.peers[:0]
	for _, pd := range peers {
		start := len(d.pois)
		d.pois = append(d.pois, pd.POIs...)
		d.peers = append(d.peers, core.PeerData{
			VR: pd.VR, POIs: d.pois[start:len(d.pois):len(d.pois)], Tainted: pd.Tainted, Bounded: pd.Bounded})
	}
}
