package p2p

import (
	"fmt"
	"math/rand"
	"testing"
)

// The breaker set before it was indexed by host, over a map and keeping
// its own tally, kept verbatim (types renamed) as the reference the array
// and the returns of its calls are held to.

// refBreakerStats tallies breaker activity for the experiment reports.
type refBreakerStats struct {
	// Trips counts closed→open and half-open→open transitions.
	Trips int64
	// ShortCircuits counts requests skipped because the target peer's
	// breaker was open (the saved retry traffic).
	ShortCircuits int64
	// Probes counts half-open probe requests allowed through.
	Probes int64
	// Recoveries counts half-open→closed transitions (probe delivered).
	Recoveries int64
	// InconclusiveProbes counts half-open probes voided by a churn
	// departure: the target left mid-probe, so the probe said nothing
	// about the peer's health and the breaker stays half-open.
	InconclusiveProbes int64
}

type refBreakerRec struct {
	state    BreakerState
	failures int   // consecutive failures while closed
	reopenAt int64 // cycle at which an open breaker half-opens
}

// refBreakerSet tracks one breaker per peer host. A nil *refBreakerSet is valid
// and allows everything (breakers disabled), so the simulator threads it
// through without nil checks. The set is deterministic: its map is never
// iterated on a behavioral path, and all transitions are driven by the
// caller's (deterministic) request/outcome sequence.
type refBreakerSet struct {
	cfg   BreakerConfig
	peers map[int]*refBreakerRec
	cycle int64
	stats refBreakerStats
}

// newRefBreakerSet creates a breaker set for the (normalized) config, or
// returns nil when the config disables breakers.
func newRefBreakerSet(cfg BreakerConfig) *refBreakerSet {
	cfg = cfg.Normalized()
	if !cfg.Enabled() {
		return nil
	}
	return &refBreakerSet{cfg: cfg, peers: make(map[int]*refBreakerRec)}
}

// Stats returns the breaker tallies. Safe on nil (zero).
func (bs *refBreakerSet) Stats() refBreakerStats {
	if bs == nil {
		return refBreakerStats{}
	}
	return bs.stats
}

// Cycle returns the current collection cycle. Safe on nil.
func (bs *refBreakerSet) Cycle() int64 {
	if bs == nil {
		return 0
	}
	return bs.cycle
}

// Tick advances the collection-cycle clock; the simulator calls it once
// per peer collection (one query's P2P phase = one cycle). Safe on nil.
func (bs *refBreakerSet) Tick() {
	if bs == nil {
		return
	}
	bs.cycle++
}

// Allow reports whether a request to peer id should be sent. An open
// breaker whose cooldown has elapsed transitions to half-open and lets
// one probe through; an open breaker inside its cooldown short-circuits
// the request. Safe on nil (always allowed).
func (bs *refBreakerSet) Allow(id int) bool {
	if bs == nil {
		return true
	}
	rec, ok := bs.peers[id]
	if !ok {
		return true // no record: closed by construction
	}
	switch rec.state {
	case BreakerOpen:
		if bs.cycle < rec.reopenAt {
			bs.stats.ShortCircuits++
			return false
		}
		rec.state = BreakerHalfOpen
		fallthrough
	case BreakerHalfOpen:
		bs.stats.Probes++
		return true
	default:
		return true
	}
}

// RecordSuccess reports that peer id delivered a sound reply: a closed
// breaker forgets accumulated failures, a half-open breaker closes
// (recovery). An *open* breaker ignores the success: no request was
// allowed through, so the reply is a leftover from an earlier round (a
// peer can trip mid-collection and still have a pre-trip reply in
// flight, or depart and return across a conviction), and honoring it
// would re-enter closed state on stale reputation, bypassing both the
// cooldown and any trust-conviction ForceOpen. Recovery must go through
// the half-open probe. Safe on nil.
func (bs *refBreakerSet) RecordSuccess(id int) {
	if bs == nil {
		return
	}
	rec, ok := bs.peers[id]
	if !ok {
		return
	}
	switch rec.state {
	case BreakerHalfOpen:
		bs.stats.Recoveries++
		rec.state = BreakerClosed
		rec.failures = 0
	case BreakerClosed:
		rec.failures = 0
	case BreakerOpen:
		// Late delivery from a pre-trip round: not a probe, no recovery.
	}
}

// RecordFailure reports one misbehavior of peer id (CRC-rejected reply,
// stale-region discard, or reply timeout). Threshold consecutive failures
// trip the breaker open for Cooldown cycles; a failed half-open probe
// re-trips immediately. Safe on nil.
func (bs *refBreakerSet) RecordFailure(id int) {
	if bs == nil {
		return
	}
	rec, ok := bs.peers[id]
	if !ok {
		rec = &refBreakerRec{}
		bs.peers[id] = rec
	}
	switch rec.state {
	case BreakerHalfOpen:
		bs.trip(rec)
	case BreakerClosed:
		rec.failures++
		if rec.failures >= bs.cfg.Threshold {
			bs.trip(rec)
		}
	}
	// BreakerOpen: failures cannot be recorded against a quarantined peer
	// (no request was sent); ignore defensively.
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
// Safe on nil.
func (bs *refBreakerSet) RecordDeparture(id int) {
	if bs == nil {
		return
	}
	rec, ok := bs.peers[id]
	if ok && rec.state == BreakerHalfOpen {
		bs.stats.InconclusiveProbes++
		return
	}
	bs.RecordFailure(id)
}

func (bs *refBreakerSet) trip(rec *refBreakerRec) {
	rec.state = BreakerOpen
	rec.failures = 0
	rec.reopenAt = bs.cycle + bs.cfg.Cooldown
	bs.stats.Trips++
}

// ForceOpen trips peer id's breaker open immediately, regardless of its
// accumulated failure count — the trust layer's conviction hook (a peer
// caught lying by a spot audit or cross-validation conflict is
// quarantined without waiting for Threshold channel failures). Parole
// still runs through the ordinary machine: after Cooldown cycles the
// breaker half-opens and one probe decides. Forcing an already-open
// breaker refreshes its cooldown without recounting the trip. Safe on
// nil (breakers disabled — the trust layer's own quarantine set still
// applies).
func (bs *refBreakerSet) ForceOpen(id int) {
	if bs == nil {
		return
	}
	rec, ok := bs.peers[id]
	if !ok {
		rec = &refBreakerRec{}
		bs.peers[id] = rec
	}
	if rec.state == BreakerOpen {
		rec.reopenAt = bs.cycle + bs.cfg.Cooldown
		return
	}
	bs.trip(rec)
}

// State returns peer id's breaker state (without side effects — an open
// breaker past its cooldown still reports open until Allow probes it).
// Safe on nil (closed).
func (bs *refBreakerSet) State(id int) BreakerState {
	if bs == nil {
		return BreakerClosed
	}
	if rec, ok := bs.peers[id]; ok {
		return rec.state
	}
	return BreakerClosed
}

// CheckInvariants verifies the state-machine invariants the chaos soak
// harness asserts after every run (map iteration here is diagnostic only
// and never reaches a behavioral path):
//
//   - every record is in a valid state;
//   - a closed record's consecutive-failure count is below the trip
//     threshold (it would have tripped otherwise);
//   - an open record's reopen cycle is finite and at most one cooldown
//     in the future (no unbounded quarantine — the no-deadlock property);
//   - half-open records carry no stale failure count.
//
// Safe on nil.
func (bs *refBreakerSet) CheckInvariants() error {
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

// ledgerIDs draws host ids from a sparse set that reaches past every
// length the array has grown to, so records are created out of order
// and the array grows while older records are live.
func ledgerIDs(rng *rand.Rand) int {
	ids := [...]int{0, 1, 2, 3, 5, 8, 13, 40, 41, 300, 1024, 4999}
	return ids[rng.Intn(len(ids))]
}

// The host-indexed breaker set answers every call as the map did: over
// random sequences of the collector's five operations and the trust
// layer's ForceOpen on a dozen sparse hosts, Allow's answer, every
// host's state, the cycle and the invariants agree after every step, and
// the returns summed (short circuits, trips, recoveries) equal the
// reference's tally, at thresholds 1–3 and cooldowns 1–4.
func TestBreakerSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for threshold := 1; threshold <= 3; threshold++ {
		for cooldown := int64(1); cooldown <= 4; cooldown++ {
			cfg := BreakerConfig{Threshold: threshold, Cooldown: cooldown}
			bs, ref := NewBreakerSet(cfg), newRefBreakerSet(cfg)
			var sum breakerCounts
			for step := 0; step < 4000; step++ {
				id := ledgerIDs(rng)
				switch op := rng.Intn(nBreakerOps + 1); op {
				case opTick:
					sum.apply(bs, op, id)
					ref.Tick()
				case opAllow:
					if got, want := sum.apply(bs, op, id), ref.Allow(id); got != want {
						t.Fatalf("threshold %d cooldown %d step %d: Allow(%d) = %v, reference %v", threshold, cooldown, step, id, got, want)
					}
				case opSuccess:
					sum.apply(bs, op, id)
					ref.RecordSuccess(id)
				case opFailure:
					sum.apply(bs, op, id)
					ref.RecordFailure(id)
				case opDeparture:
					sum.apply(bs, op, id)
					ref.RecordDeparture(id)
				default:
					if bs.ForceOpen(id) {
						sum.trips++
					}
					ref.ForceOpen(id)
				}
				for h := -1; h <= 5000; h += 1 + h/8 {
					if bs.State(h) != ref.State(h) {
						t.Fatalf("threshold %d cooldown %d step %d: host %d %v, reference %v", threshold, cooldown, step, h, bs.State(h), ref.State(h))
					}
				}
				rs := ref.Stats()
				if sum != (breakerCounts{trips: rs.Trips, shortCircuits: rs.ShortCircuits, recoveries: rs.Recoveries}) || bs.Cycle() != ref.Cycle() {
					t.Fatalf("threshold %d cooldown %d step %d: summed returns %+v cycle %d, reference %+v %d", threshold, cooldown, step,
						sum, bs.Cycle(), rs, ref.Cycle())
				}
				if err := bs.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if rs := ref.Stats(); rs.Trips == 0 || rs.Recoveries == 0 || rs.ShortCircuits == 0 || rs.Probes == 0 || rs.InconclusiveProbes == 0 {
				t.Fatalf("threshold %d cooldown %d: the walk exercised too little: %+v", threshold, cooldown, rs)
			}
		}
	}
}
