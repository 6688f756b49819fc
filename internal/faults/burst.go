// Correlated-failure channel models: a two-state Gilbert–Elliott fading
// process for the P2P ad-hoc channel and scheduled deep-fade blackout
// windows for the broadcast downlink.
//
// The legacy knobs of this package are independent Bernoulli draws, but a
// real wireless channel fails in bursts: deep fades, shadowing, and
// handoff gaps hold the channel down for many consecutive slots. The two
// models split that regime along the paper's two channels:
//
//   - Gilbert–Elliott (BurstBadLoss/BurstGoodSlots/BurstBadSlots): the
//     short-range ad-hoc channel alternates between a good state (no
//     extra loss) and a bad state (fade; high extra loss). Dwell times
//     in each state are geometric with the configured means, so losses
//     are correlated: one bad slot predicts more. The chain is indexed
//     by the broadcast slot clock and advanced lazily, so the number of
//     dwell draws depends only on elapsed slots — never on query volume
//     — keeping runs reproducible under any workload.
//   - Blackout windows (BlackoutPeriodSec/BlackoutDurationSec): each MH
//     periodically loses the broadcast downlink entirely (tunnel, deep
//     shadow, handoff gap). Windows are a pure function of the seed and
//     the host index — per-host phase offsets spread the outages — so
//     the schedule costs zero random draws.
//
// Layering contract: both models ride *under* the legacy Bernoulli knobs.
// The Gilbert–Elliott chain draws from its own salted stream and its
// kill decision is applied after the legacy draw, so arming it never
// perturbs the legacy stream's sequence; with both new knob groups zero
// the chain is nil, the schedule is nil, no draws happen, and output is
// bit-identical to the pre-burst simulator.
package faults

import (
	"math"
	"math/rand"
)

// burstSeedSalt decorrelates the Gilbert–Elliott chain's stream from the
// injector's legacy stream ("burs").
const burstSeedSalt = 0x62757273

// DeepFadeLoss is the bad-state loss rate at or above which the degraded
// planner treats the ad-hoc channel as effectively down (carrier sensing:
// a station losing ≥95% of frames cannot sustain an exchange).
const DeepFadeLoss = 0.95

// BurstEnabled reports whether the Gilbert–Elliott process is armed.
func (p Profile) BurstEnabled() bool {
	return p.BurstBadLoss > 0 && p.BurstBadSlots > 0
}

// BlackoutEnabled reports whether scheduled broadcast blackout windows
// are armed.
func (p Profile) BlackoutEnabled() bool {
	return p.BlackoutPeriodSec > 0 && p.BlackoutDurationSec > 0
}

// gilbert is the two-state Markov fading chain. State dwell times are
// geometric (mean goodMean/badMean slots); a frame is killed only in the
// bad state, with probability badLoss. All draws come from the chain's
// own salted stream.
type gilbert struct {
	rng      *rand.Rand
	badLoss  float64
	goodMean float64
	badMean  float64
	bad      bool
	started  bool
	// until is the first slot at which the current state expires.
	until int64
}

func newGilbert(seed int64, p Profile) *gilbert {
	if !p.BurstEnabled() {
		return nil
	}
	return &gilbert{
		rng:      rand.New(rand.NewSource(seed ^ burstSeedSalt)),
		badLoss:  p.BurstBadLoss,
		goodMean: p.BurstGoodSlots,
		badMean:  p.BurstBadSlots,
	}
}

// dwell draws a geometric dwell time with the given mean (>= 1 slot).
func (g *gilbert) dwell(mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	// Inversion sampling of Geometric(p) on {1, 2, ...} with p = 1/mean.
	p := 1 / mean
	u := g.rng.Float64()
	d := 1 + int64(math.Floor(math.Log(1-u)/math.Log(1-p)))
	if d < 1 {
		d = 1
	}
	const maxDwell = 1 << 40 // overflow guard; far beyond any run length
	if d > maxDwell {
		d = maxDwell
	}
	return d
}

// sync advances the chain to the given slot and returns how many times it
// flipped state. Slots move monotonically forward in the simulation;
// syncing to an earlier slot is a no-op.
func (g *gilbert) sync(slot int64) (flips int64) {
	if !g.started {
		g.started = true
		g.until = slot + g.dwell(g.goodMean)
	}
	for slot >= g.until {
		g.bad = !g.bad
		flips++
		mean := g.goodMean
		if g.bad {
			mean = g.badMean
		}
		g.until += g.dwell(mean)
	}
	return flips
}

// Sync advances the Gilbert–Elliott chain to the given broadcast slot and
// returns the number of good↔bad flips on the way. The sim calls this at
// query start and after each backoff wait so fades can begin or end
// mid-collection. A no-op (zero flips) with the chain unarmed.
func (in *Injector) Sync(slot int64) int64 {
	if in.ge == nil {
		return 0
	}
	return in.ge.sync(slot)
}

// burstLost draws whether the fading chain kills one ad-hoc frame at the
// chain's current state. No draw (and no loss) when the chain is unarmed
// or in its good state.
func (in *Injector) burstLost() bool {
	if in.ge == nil || !in.ge.bad {
		return false
	}
	return in.ge.rng.Float64() < in.ge.badLoss
}

// ChannelImpaired reports whether the fading chain currently sits in its
// bad state (at the last synced slot). The resilient collection loop uses
// this to suppress circuit-breaker strikes: during a fade the losses are
// the channel's fault, not any individual peer's.
func (in *Injector) ChannelImpaired() bool {
	return in.ge != nil && in.ge.bad
}

// DeepFade reports whether the chain is in a bad state severe enough
// (loss >= DeepFadeLoss) that the degraded planner should treat the
// ad-hoc channel as down rather than merely lossy.
func (in *Injector) DeepFade() bool {
	return in.ge != nil && in.ge.bad && in.ge.badLoss >= DeepFadeLoss
}

// Blackout is the per-MH broadcast-downlink outage schedule: every
// BlackoutPeriodSec seconds each host loses the downlink for
// BlackoutDurationSec seconds, phase-shifted per host by a seeded hash so
// the population's outages are spread across the period. The schedule is
// a pure function — zero random draws — so arming it cannot perturb any
// stream. A nil *Blackout means no windows (channel always up).
type Blackout struct {
	period   float64
	duration float64
	seed     uint64
}

// NewBlackout builds the blackout schedule for the profile, or nil when
// blackout windows are unarmed.
func NewBlackout(seed int64, p Profile) *Blackout {
	if !p.BlackoutEnabled() {
		return nil
	}
	return &Blackout{period: p.BlackoutPeriodSec, duration: p.BlackoutDurationSec, seed: uint64(seed)}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed hash for per-host phase offsets.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// phase returns the host's outage phase offset in [0, period) seconds.
func (b *Blackout) phase(host int) float64 {
	h := splitmix64(b.seed ^ uint64(host)*0x9e3779b97f4a7c15)
	return float64(h>>11) / (1 << 53) * b.period
}

// Down reports whether the host's broadcast downlink is inside a blackout
// window at simulated time sec. Safe on nil (always up).
func (b *Blackout) Down(host int, sec float64) bool {
	if b == nil {
		return false
	}
	ph := math.Mod(sec+b.phase(host), b.period)
	return ph < b.duration
}

// Remaining returns how many seconds of the host's current blackout
// window are left at simulated time sec, or 0 when the downlink is up.
// Safe on nil.
func (b *Blackout) Remaining(host int, sec float64) float64 {
	if b == nil {
		return 0
	}
	ph := math.Mod(sec+b.phase(host), b.period)
	if ph >= b.duration {
		return 0
	}
	return b.duration - ph
}
