// Package faults is the fault-injection layer of the simulator: a seeded,
// deterministic source of substrate misbehavior for every channel the
// paper's sharing architecture depends on.
//
// The seed reproduces Ku–Zimmermann–Wang under an idealized radio model:
// every ad-hoc frame arrives intact. Real 802.11 links lose and corrupt
// frames, and broadcast downlinks drop packets. The Injector models these
// as independent Bernoulli processes drawn from its own seeded stream, so
// fault runs are exactly reproducible and a zero Profile makes no random
// draws at all (the no-fault path is bit-identical to the ideal
// simulator). Peer caches going stale is not a fault here: it is the POI
// update process of the consistency layer (internal/sim, DESIGN.md §12).
//
// What is injected where:
//
//   - P2P request loss: a neighbor fails to hear the broadcast cache
//     request (per peer, per attempt). The querying host re-requests
//     its unanswered peers within a bounded retry budget.
//   - P2P reply loss / truncation / bit corruption: a peer's reply is
//     dropped in flight, cut short, or bit-flipped. Corrupted replies are
//     detected by the wire CRC and rejected; the query degrades (the MVR
//     shrinks) instead of failing.
//   - Broadcast packet loss: a data-packet or index-segment reception
//     fails; the client waits for the packet's next cycle occurrence or
//     the next (1, m) index replica, widening latency and tuning time.
//   - Peer churn: a neighbor powers off or drifts out of range while a
//     query's peer collection is in flight, and may come back.
//
// Soundness argument: every injected fault removes information from the
// querying host (fewer peers heard, fewer regions survive, packets arrive
// later) and never fabricates it. SBNN/SBWQ verification is monotone in
// the peer set — shrinking the MVR can only demote answers from verified
// to broadcast-fallback — so degradation keeps the paper's Lemma 3.1
// guarantee: whatever is still reported as exact is exact.
package faults

import (
	"fmt"
	"math/rand"

	"lbsq/internal/knob"
)

// MaxRate is the inclusive upper bound of every independent loss
// probability (the `max` tag of each Bernoulli knob below): a channel
// losing more than 95% of its frames is indistinguishable from no channel,
// and the bound keeps the retry loops short.
const MaxRate = 0.95

// DefaultMaxRetries is the request re-broadcast budget used when a
// Profile enables faults but leaves MaxRetries at zero.
const DefaultMaxRetries = 2

// Profile configures the per-channel fault rates. The zero value is the
// ideal substrate: no faults, no random draws, no behavioral change. A
// field's `flag`, `max` and `usage` tags are its lbsq-sim flag, its
// inclusive upper bound and its help line (internal/knob); an empty flag
// name keeps the range check only (the two halves of -corrupt).
type Profile struct {
	// RequestLoss is the probability that one neighbor fails to hear one
	// broadcast cache request (independently per peer and per attempt).
	RequestLoss float64 `flag:"req-loss" max:"0.95" usage:"P2P request loss rate per peer [0, 0.95]"`
	// ReplyLoss is the probability a peer reply is dropped in flight.
	ReplyLoss float64 `flag:"reply-loss" max:"0.95" usage:"P2P reply loss rate [0, 0.95]"`
	// ReplyTruncate is the probability a reply arrives cut short.
	ReplyTruncate float64 `flag:"" max:"0.95"`
	// ReplyCorrupt is the probability a reply arrives with flipped bits.
	ReplyCorrupt float64 `flag:"" max:"0.95"`
	// BroadcastLoss is the probability one broadcast packet (or index
	// segment) reception fails and the client waits a further cycle (or
	// index replica).
	BroadcastLoss float64 `flag:"loss" max:"0.95" usage:"broadcast packet/index loss rate [0, 0.95]"`
	// ChurnRate is the per-peer, per-collection-round probability that a
	// neighbor powers off or drifts out of transmission range while a
	// query's peer collection is in flight — and, symmetrically, that a
	// departed neighbor powers back on / drifts back into range. Churn is
	// drawn between the request broadcast and the reply deliveries of
	// every round, so a reply can arrive from a peer that has since
	// departed (it was in flight) and a retry can target a peer that is
	// no longer there (wasted, counted). Zero disables churn entirely.
	ChurnRate float64 `flag:"churn-rate" max:"0.95" usage:"per-peer per-round probability of powering off/on mid-collection [0, 0.95]"`
	// MaxRetries bounds how many times a querying host re-broadcasts its
	// cache request while a neighbor has not answered. Zero selects
	// DefaultMaxRetries when any fault rate is set.
	MaxRetries int `flag:"retries" max:"16" usage:"retry rounds per peer collection (0 = default when faults are on)"`
	// ByzantineRate is the fraction of mobile hosts that are byzantine:
	// every claim such a host shares is materially false (see attack.go
	// for the adversary model). Byzantine status is a property of the
	// host, assigned once at world construction from a dedicated seeded
	// stream; the rate is a population fraction, not a per-reply
	// probability. Zero (the default) means every peer is honest and the
	// attack path makes no draws at all.
	ByzantineRate float64 `json:",omitempty" flag:"byzantine-rate" max:"1" usage:"fraction of hosts that lie about their cached regions [0, 1]"`
	// Attack selects the lie byzantine hosts tell. Normalized defaults
	// it to AttackMix when ByzantineRate > 0 and clears it to AttackNone
	// when the rate is zero (an attack with no attackers is inert).
	Attack Attack `json:",omitempty" flag:"attack" usage:"byzantine attack profile: fabricate, omit, inflate, shift, mix (default mix when -byzantine-rate > 0)"`
	// BurstBadLoss is the extra ad-hoc frame loss while the
	// Gilbert–Elliott fading chain (see burst.go) is in its bad (fade)
	// state; the good state loses nothing beyond the Bernoulli knobs.
	// Unlike those knobs it may reach 1.0: the degraded planner, not a
	// retry cap, is the defense against a dead channel. Zero disarms the
	// chain entirely.
	BurstBadLoss float64 `json:",omitempty" flag:"burst-bad-loss" max:"1" usage:"extra ad-hoc frame loss in the Gilbert–Elliott bad (fade) state [0, 1]; 0 disarms the chain"`
	// BurstGoodSlots is the mean good-state dwell time in broadcast
	// slots (geometric). Defaults to 9× BurstBadSlots when the chain is
	// armed but this is left zero (≈10% bad-state duty cycle).
	BurstGoodSlots float64 `json:",omitempty" flag:"burst-good-slots" usage:"mean good-state dwell in broadcast slots (0 = default 9× bad dwell)"`
	// BurstBadSlots is the mean bad-state dwell time in broadcast slots
	// (geometric). Zero disarms the chain.
	BurstBadSlots float64 `json:",omitempty" flag:"burst-bad-slots" usage:"mean bad-state dwell in broadcast slots; 0 disarms the chain"`
	// BlackoutPeriodSec is the period of the per-MH broadcast-downlink
	// blackout schedule (see Blackout in burst.go). Zero disarms
	// blackout windows.
	BlackoutPeriodSec float64 `json:",omitempty" flag:"blackout-period" usage:"per-MH broadcast-downlink blackout period in seconds (0 = no blackouts)"`
	// BlackoutDurationSec is how long each blackout window holds the
	// downlink dark, at most the period. Zero disarms.
	BlackoutDurationSec float64 `json:",omitempty" flag:"blackout-duration" usage:"blackout window length in seconds, at most the period; 0 disarms blackouts"`
}

// Enabled reports whether any fault process is active.
func (p Profile) Enabled() bool {
	return p.RequestLoss > 0 || p.ReplyLoss > 0 || p.ReplyTruncate > 0 ||
		p.ReplyCorrupt > 0 || p.BroadcastLoss > 0 || p.ChurnRate > 0 ||
		p.BurstEnabled()
}

// Normalized returns the profile with the defaults its zero fields stand
// for filled in: the attack a byzantine rate implies, the burst dwells and
// the retry budget. It does not range-check: Validate rejects an
// out-of-range value, and sim.Params.Validate runs before any layer is
// built.
func (p Profile) Normalized() Profile {
	out := p
	if out.ByzantineRate > 0 && out.Attack == AttackNone {
		out.Attack = AttackMix
	}
	if out.ByzantineRate == 0 {
		out.Attack = AttackNone
	}
	// Dwell means below one slot round up to one.
	if out.BurstEnabled() {
		if out.BurstBadSlots < 1 {
			out.BurstBadSlots = 1
		}
		if out.BurstGoodSlots == 0 {
			out.BurstGoodSlots = 9 * out.BurstBadSlots
		}
		if out.BurstGoodSlots < 1 {
			out.BurstGoodSlots = 1
		}
	}
	if out.MaxRetries == 0 && out.Enabled() {
		out.MaxRetries = DefaultMaxRetries
	}
	return out
}

// Validate reports profile configuration errors. Every flag-tagged rate,
// dwell and budget is range-checked from its declaration above (finite,
// non-negative, at most its `max` — MaxRate for the Bernoulli knobs); what
// remains here is what a range cannot say.
func (p Profile) Validate() error {
	if err := knob.Check(&p); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	if p.Attack < AttackNone || p.Attack > AttackMix {
		return fmt.Errorf("faults: unknown Attack %d", int(p.Attack))
	}
	if p.BlackoutDurationSec > 0 && p.BlackoutPeriodSec > 0 &&
		p.BlackoutDurationSec > p.BlackoutPeriodSec {
		return fmt.Errorf("faults: BlackoutDurationSec %v exceeds BlackoutPeriodSec %v",
			p.BlackoutDurationSec, p.BlackoutPeriodSec)
	}
	return nil
}

// ReplyFate classifies what the channel did to one peer reply.
type ReplyFate int

const (
	// FateDeliver: the reply arrived intact.
	FateDeliver ReplyFate = iota
	// FateDrop: the reply was lost in flight.
	FateDrop
	// FateTruncate: the reply arrived cut short.
	FateTruncate
	// FateCorrupt: the reply arrived with flipped bits.
	FateCorrupt
)

// String implements fmt.Stringer.
func (f ReplyFate) String() string {
	switch f {
	case FateDrop:
		return "drop"
	case FateTruncate:
		return "truncate"
	case FateCorrupt:
		return "corrupt"
	default:
		return "deliver"
	}
}

// Injector is a seeded, deterministic fault source. All decision methods
// draw from the injector's own stream —
// never the simulation's — so enabling faults does not perturb the world's
// randomness, and a zero profile makes no draws at all. It keeps no tally:
// each method returns what it did, and the caller counts it.
type Injector struct {
	prof Profile
	rng  *rand.Rand
	// ge is the Gilbert–Elliott fading chain for the ad-hoc channel; nil
	// unless the burst knobs are armed. It owns a separate salted stream
	// (seed ^ burstSeedSalt) so arming it leaves the legacy stream's
	// draw sequence untouched.
	ge *gilbert
	// lieSeq counts AttackClaim applications: it cycles AttackMix through
	// the concrete attacks and makes every fabricated POI ID unique.
	lieSeq int64
	inside []int // AttackOmit's candidates, reused across claims
}

// New creates an injector for the (normalized) profile, seeded
// independently of the simulation stream.
func New(seed int64, p Profile) *Injector {
	np := p.Normalized()
	return &Injector{
		prof: np,
		rng:  rand.New(rand.NewSource(seed)),
		ge:   newGilbert(seed, np),
	}
}

// Profile returns the active (normalized) profile.
func (in *Injector) Profile() Profile { return in.prof }

// RequestHeard draws whether one neighbor heard one broadcast cache
// request; faded says the Gilbert–Elliott chain killed it. The legacy
// Bernoulli draw comes first (from the legacy stream, only when
// RequestLoss is set — exactly as before the fading chain existed); the
// Gilbert–Elliott kill is layered under it from its own stream.
func (in *Injector) RequestHeard() (heard, faded bool) {
	if in.prof.RequestLoss > 0 && in.rng.Float64() < in.prof.RequestLoss {
		return false, false
	}
	if in.burstLost() {
		return false, true
	}
	return true, false
}

// ReplyFate draws what the ad-hoc channel does to one peer reply; faded
// says the Gilbert–Elliott chain dropped it. The three legacy failure
// modes are disjoint (loss, then truncation, then corruption) and draw
// from the legacy stream exactly as before; the fading kill is layered
// under a legacy FateDeliver from its own stream, so arming the chain
// never shifts the legacy sequence.
func (in *Injector) ReplyFate() (fate ReplyFate, faded bool) {
	p := in.prof
	if p.ReplyLoss > 0 || p.ReplyTruncate > 0 || p.ReplyCorrupt > 0 {
		u := in.rng.Float64()
		switch {
		case u < p.ReplyLoss:
			fate = FateDrop
		case u < p.ReplyLoss+p.ReplyTruncate:
			fate = FateTruncate
		case u < p.ReplyLoss+p.ReplyTruncate+p.ReplyCorrupt:
			fate = FateCorrupt
		}
	}
	if fate == FateDeliver && in.burstLost() {
		return FateDrop, true
	}
	return fate, false
}

// ChurnDeparts draws whether one present peer powers off or drifts out of
// range during the current collection round.
func (in *Injector) ChurnDeparts() bool {
	return in.prof.ChurnRate > 0 && in.rng.Float64() < in.prof.ChurnRate
}

// ChurnReturns draws whether one departed peer powers back on or drifts
// back into range during the current collection round.
func (in *Injector) ChurnReturns() bool {
	return in.prof.ChurnRate > 0 && in.rng.Float64() < in.prof.ChurnRate
}

// Backoff parameters of the resilient query lifecycle: the deterministic
// base delay before retry round a (the first retry is round 2) is
// BackoffBaseSlots << (a-2), capped at BackoffCapSlots; seeded jitter in
// [0, base) is added on top, so the total wait for one retry lies in
// [base, 2*base). Everything is measured in broadcast slots — the only
// clock a broadcast client owns.
const (
	// BackoffBaseSlots is the delay before the first retry.
	BackoffBaseSlots = 2
	// BackoffCapSlots caps the exponential growth of the base delay.
	BackoffCapSlots = 16
)

// BackoffSlots returns the deterministic base backoff delay (in broadcast
// slots) paid before retry round `attempt` (attempt 2 is the first
// retry). Attempts below 2 cost nothing.
func BackoffSlots(attempt int) int64 {
	if attempt < 2 {
		return 0
	}
	shift := attempt - 2
	if shift > 30 {
		shift = 30
	}
	d := int64(BackoffBaseSlots) << shift
	if d > BackoffCapSlots {
		d = BackoffCapSlots
	}
	return d
}

// Jitter draws a uniform delay in [0, n) from the injector's stream — the
// seeded jitter added to each backoff wait so colliding retry schedules
// de-synchronize deterministically.
func (in *Injector) Jitter(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return in.rng.Int63n(n)
}

// Mangle applies the drawn fate to an encoded message in place and returns
// what arrives: truncation returns a prefix of b cut at a random interior
// point, corruption flips one to four random bits of b itself. FateDeliver
// and FateDrop return b unchanged. Nothing is allocated, so a caller that
// needs the sent frame afterwards mangles a copy.
func (in *Injector) Mangle(b []byte, fate ReplyFate) []byte {
	if len(b) == 0 {
		return b
	}
	switch fate {
	case FateTruncate:
		// Cut strictly inside the message so something, but not
		// everything, arrives.
		cut := 1 + in.rng.Intn(len(b))
		if cut >= len(b) {
			cut = len(b) - 1
		}
		return b[:cut]
	case FateCorrupt:
		flips := 1 + in.rng.Intn(4)
		for i := 0; i < flips; i++ {
			b[in.rng.Intn(len(b))] ^= byte(1) << in.rng.Intn(8)
		}
		return b
	default:
		return b
	}
}
