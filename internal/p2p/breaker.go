// Per-peer circuit breakers: a reputation record per host that trips open
// after repeated misbehavior (CRC-rejected replies, stale-region
// discards, reply timeouts), quarantines the peer for a cooldown measured
// in collection cycles, and half-opens to probe recovery — the classical
// closed → open → half-open machine of resilient RPC stacks, applied to
// ad-hoc cache sharing so one flaky or byzantine neighbor cannot burn a
// querying host's whole retry budget on every query.
//
// State machine (see DESIGN.md §8):
//
//	closed ──(Threshold consecutive failures)──▶ open
//	open ──(Cooldown cycles elapse)──▶ half-open
//	half-open ──(probe reply delivered)──▶ closed
//	half-open ──(probe fails)──▶ open (re-trip, fresh cooldown)
//
// Liveness: an open breaker always carries a finite reopen cycle
// (cycle + Cooldown at trip time), and every Allow call on or after that
// cycle transitions it to half-open, so no peer is quarantined forever —
// the machine cannot deadlock.
package p2p

import "fmt"

// DefaultBreakerCooldown is the quarantine length (in collection cycles)
// used when a BreakerConfig enables breakers but leaves Cooldown at zero.
const DefaultBreakerCooldown = 8

// BreakerState is one peer's circuit-breaker state.
type BreakerState uint8

const (
	// BreakerClosed: the peer is trusted; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer is quarantined; requests short-circuit.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the next request is a probe.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig configures the per-peer breakers. The zero value disables
// them entirely (no records kept, no behavioral change).
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips a
	// peer's breaker open. Zero disables breakers.
	Threshold int
	// Cooldown is the quarantine length in collection cycles after a
	// trip. Zero selects DefaultBreakerCooldown when Threshold is set.
	Cooldown int64
}

// Enabled reports whether breakers are active.
func (c BreakerConfig) Enabled() bool { return c.Threshold > 0 }

// Normalized returns the config with the cooldown defaulted. It does not
// range-check: sim.Params.Validate rejects a negative knob before any
// breaker set is built.
func (c BreakerConfig) Normalized() BreakerConfig {
	out := c
	if out.Enabled() && out.Cooldown == 0 {
		out.Cooldown = DefaultBreakerCooldown
	}
	return out
}

// breakerRec is one peer's reputation record. A peer that never failed
// has the zero record: closed, with no failures.
type breakerRec struct {
	state    BreakerState
	failures int   // consecutive failures while closed
	reopenAt int64 // cycle at which an open breaker half-opens
}

// BreakerSet tracks one breaker per peer host. A nil *BreakerSet is valid
// and allows everything (breakers disabled), so the simulator threads it
// through without nil checks. The set is deterministic: all transitions
// are driven by the caller's (deterministic) request/outcome sequence. It
// keeps no tally: each call returns the transition it made (a short
// circuit, a trip, a recovery), and the caller counts it.
type BreakerSet struct {
	cfg   BreakerConfig
	peers []breakerRec // by host id, grown on demand, never shrunk (DESIGN.md §11)
	cycle int64
}

// NewBreakerSet creates a breaker set for the (normalized) config, or
// returns nil when the config disables breakers.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	cfg = cfg.Normalized()
	if !cfg.Enabled() {
		return nil
	}
	return &BreakerSet{cfg: cfg}
}

// rec is peer id's record, the array grown to hold it.
func (bs *BreakerSet) rec(id int) *breakerRec {
	if id >= len(bs.peers) {
		bs.peers = append(bs.peers, make([]breakerRec, id+1-len(bs.peers))...)
	}
	return &bs.peers[id]
}

// Cycle returns the current collection cycle. Safe on nil.
func (bs *BreakerSet) Cycle() int64 {
	if bs == nil {
		return 0
	}
	return bs.cycle
}

// Tick advances the collection-cycle clock; the simulator calls it once
// per peer collection (one query's P2P phase = one cycle). Safe on nil.
func (bs *BreakerSet) Tick() {
	if bs == nil {
		return
	}
	bs.cycle++
}

// Allow reports whether a request to peer id should be sent. An open
// breaker whose cooldown has elapsed transitions to half-open and lets
// one probe through; an open breaker inside its cooldown short-circuits
// the request, and false is that short circuit. Safe on nil (always
// allowed).
func (bs *BreakerSet) Allow(id int) bool {
	if bs == nil {
		return true
	}
	rec := bs.rec(id)
	if rec.state == BreakerOpen {
		if bs.cycle < rec.reopenAt {
			return false
		}
		rec.state = BreakerHalfOpen
	}
	return true
}

// RecordSuccess reports that peer id delivered a sound reply: a closed
// breaker forgets accumulated failures, a half-open breaker closes
// (recovery). An *open* breaker ignores the success: no request was
// allowed through, so the reply is a leftover from an earlier round (a
// peer can trip mid-collection and still have a pre-trip reply in
// flight, or depart and return across a conviction), and honoring it
// would re-enter closed state on stale reputation, bypassing both the
// cooldown and any trust-conviction ForceOpen. Recovery must go through
// the half-open probe. It returns true on a half-open→closed recovery.
// Safe on nil.
func (bs *BreakerSet) RecordSuccess(id int) (recovered bool) {
	if bs == nil {
		return false
	}
	rec := bs.rec(id)
	switch rec.state {
	case BreakerHalfOpen:
		rec.state = BreakerClosed
		rec.failures = 0
		return true
	case BreakerClosed:
		rec.failures = 0
	case BreakerOpen:
		// Late delivery from a pre-trip round: not a probe, no recovery.
	}
	return false
}

// RecordFailure reports one misbehavior of peer id (CRC-rejected reply,
// stale-region discard, or reply timeout). Threshold consecutive failures
// trip the breaker open for Cooldown cycles; a failed half-open probe
// re-trips immediately. It returns true when the call tripped the
// breaker. Safe on nil.
func (bs *BreakerSet) RecordFailure(id int) (tripped bool) {
	if bs == nil {
		return false
	}
	rec := bs.rec(id)
	switch rec.state {
	case BreakerHalfOpen:
		bs.trip(rec)
		return true
	case BreakerClosed:
		rec.failures++
		if rec.failures >= bs.cfg.Threshold {
			bs.trip(rec)
			return true
		}
	}
	// BreakerOpen: failures cannot be recorded against a quarantined peer
	// (no request was sent); ignore defensively.
	return false
}

// RecordDeparture reports that peer id churned away while a request to
// it was unresolved. Departure is not misbehavior — the peer powered off
// or drifted out of range — but a querying host cannot generally
// distinguish a departed peer from a silent one, so a *closed* breaker
// still counts the strike exactly like RecordFailure (the legacy
// accounting). The one case the host *can* distinguish is a half-open
// probe: the breaker sent exactly one request to a quarantined peer, and
// if that peer departed, the probe was voided rather than failed —
// re-tripping would extend the quarantine on zero evidence and, under
// sustained churn, could starve an honest peer of parole indefinitely.
// The breaker stays half-open and the next Allow sends a fresh probe.
// It returns true when the call tripped the breaker. Safe on nil.
func (bs *BreakerSet) RecordDeparture(id int) (tripped bool) {
	if bs == nil || bs.rec(id).state == BreakerHalfOpen {
		return false
	}
	return bs.RecordFailure(id)
}

func (bs *BreakerSet) trip(rec *breakerRec) {
	rec.state = BreakerOpen
	rec.failures = 0
	rec.reopenAt = bs.cycle + bs.cfg.Cooldown
}

// ForceOpen trips peer id's breaker open immediately, regardless of its
// accumulated failure count — the trust layer's conviction hook (a peer
// caught lying by a spot audit or cross-validation conflict is
// quarantined without waiting for Threshold channel failures). Parole
// still runs through the ordinary machine: after Cooldown cycles the
// breaker half-opens and one probe decides. It returns true when the call
// tripped the breaker: forcing an already-open breaker only refreshes its
// cooldown and returns false. Safe on nil (breakers disabled — the trust
// layer's own quarantine set still applies).
func (bs *BreakerSet) ForceOpen(id int) (tripped bool) {
	if bs == nil {
		return false
	}
	rec := bs.rec(id)
	if rec.state == BreakerOpen {
		rec.reopenAt = bs.cycle + bs.cfg.Cooldown
		return false
	}
	bs.trip(rec)
	return true
}

// State returns peer id's breaker state (without side effects — an open
// breaker past its cooldown still reports open until Allow probes it).
// Safe on nil (closed).
func (bs *BreakerSet) State(id int) BreakerState {
	if bs == nil || id < 0 || id >= len(bs.peers) {
		return BreakerClosed
	}
	return bs.peers[id].state
}

// CheckInvariants verifies the state-machine invariants the chaos soak
// harness asserts after every run, walking the records in host order:
//
//   - every record is in a valid state;
//   - a closed record's consecutive-failure count is below the trip
//     threshold (it would have tripped otherwise);
//   - an open record's reopen cycle is finite and at most one cooldown
//     in the future (no unbounded quarantine — the no-deadlock property);
//   - half-open records carry no stale failure count.
//
// Safe on nil.
func (bs *BreakerSet) CheckInvariants() error {
	if bs == nil {
		return nil
	}
	for id, rec := range bs.peers {
		switch rec.state {
		case BreakerClosed:
			if rec.failures >= bs.cfg.Threshold {
				return fmt.Errorf("p2p: peer %d closed with %d failures (threshold %d)",
					id, rec.failures, bs.cfg.Threshold)
			}
		case BreakerOpen:
			if rec.reopenAt > bs.cycle+bs.cfg.Cooldown {
				return fmt.Errorf("p2p: peer %d open past one cooldown (reopen %d, cycle %d, cooldown %d)",
					id, rec.reopenAt, bs.cycle, bs.cfg.Cooldown)
			}
		case BreakerHalfOpen:
			if rec.failures != 0 {
				return fmt.Errorf("p2p: peer %d half-open with %d stale failures", id, rec.failures)
			}
		default:
			return fmt.Errorf("p2p: peer %d in unknown state %d", id, rec.state)
		}
	}
	return nil
}
