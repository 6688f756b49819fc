package p2p

import "testing"

func newTestBreakers(t *testing.T, threshold int, cooldown int64) *BreakerSet {
	t.Helper()
	bs := NewBreakerSet(BreakerConfig{Threshold: threshold, Cooldown: cooldown})
	if bs == nil {
		t.Fatalf("breaker set nil for threshold=%d cooldown=%d", threshold, cooldown)
	}
	return bs
}

// The five operations the collector drives a breaker with.
const (
	opTick = iota
	opAllow
	opSuccess
	opFailure
	opDeparture
	nBreakerOps
)

// breakerCounts sums what breaker calls returned: a false Allow is a
// short circuit, a true RecordFailure, RecordDeparture or ForceOpen a trip
// and a true RecordSuccess a recovery.
type breakerCounts struct {
	trips, shortCircuits, recoveries int64
}

// apply drives bs with one of the collector's operations on peer, adds
// what the call returned to c and returns Allow's answer (true otherwise).
func (c *breakerCounts) apply(bs *BreakerSet, op, peer int) bool {
	switch op {
	case opTick:
		bs.Tick()
	case opAllow:
		if !bs.Allow(peer) {
			c.shortCircuits++
			return false
		}
	case opSuccess:
		if bs.RecordSuccess(peer) {
			c.recoveries++
		}
	case opFailure:
		if bs.RecordFailure(peer) {
			c.trips++
		}
	case opDeparture:
		if bs.RecordDeparture(peer) {
			c.trips++
		}
	}
	return true
}

// breakerModel is the reference closed/open/half-open machine for one
// peer. It keeps a countdown of ticks left in quarantine where BreakerSet
// keeps an absolute reopen cycle, so the two agree only if both are right.
type breakerModel struct {
	state  BreakerState
	streak int   // consecutive failures while closed
	wait   int64 // ticks before an open breaker may probe
	counts breakerCounts
}

// step applies one operation and returns Allow's answer (true otherwise).
func (m *breakerModel) step(op, threshold int, cooldown int64) bool {
	strike := op == opFailure || op == opDeparture
	switch {
	case op == opTick && m.wait > 0:
		m.wait--
	case op == opAllow && m.state == BreakerOpen && m.wait > 0:
		m.counts.shortCircuits++
		return false
	case op == opAllow && m.state != BreakerClosed:
		m.state = BreakerHalfOpen // a probe
	case op == opSuccess && m.state == BreakerHalfOpen:
		m.state = BreakerClosed
		m.counts.recoveries++
	case op == opSuccess && m.state == BreakerClosed:
		m.streak = 0
	case op == opDeparture && m.state == BreakerHalfOpen:
		// An inconclusive probe: the breaker stays half-open.
	case strike && m.state == BreakerClosed && m.streak+1 < threshold:
		m.streak++
	case strike && m.state != BreakerOpen:
		m.state, m.streak, m.wait = BreakerOpen, 0, cooldown
		m.counts.trips++
	}
	return true
}

// TestBreakerModelCheck walks every sequence of the five operations up to
// length 8 on one peer, at thresholds 1–3 and cooldowns 1–3, against the
// reference model, comparing the state, Allow's answer, the summed returns
// and the invariants after every step, and checking that a probe, and a
// probe its target departed from, leave the breaker half-open. Sequences
// share their prefixes: each step is undone on the way back up instead of
// replayed.
func TestBreakerModelCheck(t *testing.T) {
	const peer, depth = 7, 8
	for threshold := 1; threshold <= 3; threshold++ {
		for cooldown := int64(1); cooldown <= 3; cooldown++ {
			bs := newTestBreakers(t, threshold, cooldown)
			var path []int
			var sum breakerCounts
			var walk func(m breakerModel)
			walk = func(m breakerModel) {
				if len(path) == depth {
					return
				}
				cycle, counts := bs.cycle, sum
				var saved breakerRec
				if peer < len(bs.peers) {
					saved = bs.peers[peer]
				}
				for op := 0; op < nBreakerOps; op++ {
					path = append(path, op)
					next := m
					allowed := sum.apply(bs, op, peer)
					want := next.step(op, threshold, cooldown)
					if allowed != want || bs.State(peer) != next.state || sum != next.counts {
						t.Fatalf("threshold %d cooldown %d ops %v: allowed %v state %v counts %+v, model %v %v %+v",
							threshold, cooldown, path, allowed, bs.State(peer), sum, want, next.state, next.counts)
					}
					probe := op == opAllow && allowed && m.state != BreakerClosed
					voided := op == opDeparture && m.state == BreakerHalfOpen
					if (probe || voided) && bs.State(peer) != BreakerHalfOpen {
						t.Fatalf("threshold %d cooldown %d ops %v: %v after a probe, want half-open",
							threshold, cooldown, path, bs.State(peer))
					}
					if err := bs.CheckInvariants(); err != nil {
						t.Fatalf("threshold %d cooldown %d ops %v: %v", threshold, cooldown, path, err)
					}
					walk(next)
					path = path[:len(path)-1]
					bs.cycle, sum = cycle, counts
					if peer < len(bs.peers) {
						bs.peers[peer] = saved
					}
				}
			}
			walk(breakerModel{})
		}
	}
}

func TestBreakerHalfOpenProbeFailureReTrips(t *testing.T) {
	bs := newTestBreakers(t, 2, 4)
	const peer = 9
	if bs.RecordFailure(peer) || !bs.RecordFailure(peer) { // trip at cycle 0, reopenAt 4
		t.Fatal("the second failure did not report the trip")
	}
	for bs.Cycle() < 4 {
		bs.Tick()
	}
	if !bs.Allow(peer) {
		t.Fatal("probe denied after cooldown")
	}
	if !bs.RecordFailure(peer) { // failed probe: immediate re-trip
		t.Fatal("the failed probe did not report a re-trip")
	}
	if got := bs.State(peer); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Fresh cooldown: quarantined again until cycle 8.
	bs.Tick()
	if bs.Allow(peer) {
		t.Fatal("re-tripped breaker allowed a request inside its fresh cooldown")
	}
	if bs.RecordSuccess(peer) {
		t.Fatal("a success on an open breaker reported a recovery")
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerLiveness pins the no-deadlock property: however many times a
// peer fails, the breaker always lets a probe through after each cooldown.
func TestBreakerLiveness(t *testing.T) {
	bs := newTestBreakers(t, 1, 2)
	const peer = 3
	probes := 0
	for round := 0; round < 50; round++ {
		bs.Tick()
		if bs.Allow(peer) {
			probes++
			bs.RecordFailure(peer) // every contact fails
		}
	}
	if probes < 10 {
		t.Fatalf("only %d probes in 50 cycles — quarantine is not bounded", probes)
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tracked counts the peers whose records left the zero record: the ones
// a failure or a forced trip has touched and no success has cleared.
func tracked(bs *BreakerSet) int {
	if bs == nil {
		return 0
	}
	n := 0
	for _, r := range bs.peers {
		if r != (breakerRec{}) {
			n++
		}
	}
	return n
}

func TestBreakerSuccessWithoutRecordAllocatesNothing(t *testing.T) {
	bs := newTestBreakers(t, 2, 4)
	bs.RecordSuccess(42)
	if got := tracked(bs); got != 0 {
		t.Fatalf("tracked = %d after success on unknown peer, want 0", got)
	}
	if !bs.Allow(42) {
		t.Fatal("unknown peer denied")
	}
}

func TestBreakerIndependentPeers(t *testing.T) {
	bs := newTestBreakers(t, 1, 10)
	bs.RecordFailure(1)
	bs.Tick()
	if bs.Allow(1) {
		t.Fatal("tripped peer 1 allowed")
	}
	if !bs.Allow(2) {
		t.Fatal("healthy peer 2 denied because peer 1 tripped")
	}
	if got := tracked(bs); got != 1 {
		t.Fatalf("tracked = %d, want 1 (records are lazy)", got)
	}
}

func TestBreakerNilSafety(t *testing.T) {
	var bs *BreakerSet
	if !bs.Allow(1) {
		t.Fatal("nil set denied a request")
	}
	if bs.RecordSuccess(1) || bs.RecordFailure(1) || bs.RecordDeparture(1) || bs.ForceOpen(1) {
		t.Fatal("nil set reported a transition")
	}
	bs.Tick()
	if got := bs.State(1); got != BreakerClosed {
		t.Fatalf("nil state = %v, want closed", got)
	}
	if tracked(bs) != 0 || bs.Cycle() != 0 {
		t.Fatal("nil set reports tracked peers or cycles")
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewBreakerSetDisabled(t *testing.T) {
	if bs := NewBreakerSet(BreakerConfig{}); bs != nil {
		t.Fatal("zero config built a breaker set")
	}
	if bs := NewBreakerSet(BreakerConfig{Cooldown: 5}); bs != nil {
		t.Fatal("cooldown without threshold built a breaker set")
	}
	if bs := NewBreakerSet(BreakerConfig{Threshold: -1}); bs != nil {
		t.Fatal("negative threshold built a breaker set")
	}
}

func TestBreakerConfigNormalized(t *testing.T) {
	got := BreakerConfig{Threshold: 3}.Normalized()
	if got.Cooldown != DefaultBreakerCooldown {
		t.Fatalf("cooldown = %d, want default %d", got.Cooldown, DefaultBreakerCooldown)
	}
	got = BreakerConfig{Threshold: 3, Cooldown: 2}.Normalized()
	if got.Cooldown != 2 {
		t.Fatalf("explicit cooldown rewritten to %d", got.Cooldown)
	}
	// Disabled config keeps cooldown zero (no phantom default).
	got = BreakerConfig{Cooldown: 0}.Normalized()
	if got.Cooldown != 0 {
		t.Fatalf("disabled config picked up a cooldown: %+v", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "closed", // unknown defaults to closed
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", state, got, want)
		}
	}
}

// TestBreakerProbeDepartureInconclusive pins the intended interaction of
// a half-open probe with a churn departure: the target leaving mid-probe
// voids the probe instead of failing it. Re-tripping on a departure would
// extend the quarantine on zero evidence; under sustained churn an honest
// peer could be starved of parole indefinitely.
func TestBreakerProbeDepartureInconclusive(t *testing.T) {
	bs := newTestBreakers(t, 3, 4)
	const peer = 9

	// Trip the breaker, wait out the cooldown, send the probe.
	for i := 0; i < 3; i++ {
		bs.RecordFailure(peer)
	}
	for i := int64(0); i < 4; i++ {
		bs.Tick()
	}
	if !bs.Allow(peer) {
		t.Fatal("cooldown elapsed: probe must be allowed")
	}
	if got := bs.State(peer); got != BreakerHalfOpen {
		t.Fatalf("state after probe = %v, want half-open", got)
	}

	// The probed peer churns away: inconclusive, not a failed probe.
	if bs.RecordDeparture(peer) {
		t.Fatal("departure re-tripped a half-open breaker")
	}
	if got := bs.State(peer); got != BreakerHalfOpen {
		t.Fatalf("state after probe-target departure = %v, want half-open (no re-trip)", got)
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The breaker stays probe-able: the next Allow sends a fresh probe,
	// and a delivered probe reply still closes it.
	if !bs.Allow(peer) {
		t.Fatal("half-open breaker must allow a fresh probe after an inconclusive one")
	}
	if !bs.RecordSuccess(peer) {
		t.Fatal("a delivered probe reported no recovery")
	}
	if got := bs.State(peer); got != BreakerClosed {
		t.Fatalf("state after delivered probe = %v, want closed", got)
	}

	// Contrast: a *closed* breaker cannot distinguish departure from
	// silence, so RecordDeparture keeps the legacy strike accounting.
	const other = 11
	if bs.RecordDeparture(other) || bs.RecordDeparture(other) || !bs.RecordDeparture(other) {
		t.Fatal("the third closed-state departure did not report the trip")
	}
	if got := bs.State(other); got != BreakerOpen {
		t.Fatalf("closed-state departures = %v, want open (legacy strike accounting)", got)
	}

	// Nil safety.
	var nilBS *BreakerSet
	nilBS.RecordDeparture(3)
}
