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

// breakerModel is the reference closed/open/half-open machine for one
// peer. It keeps a countdown of ticks left in quarantine where BreakerSet
// keeps an absolute reopen cycle, so the two agree only if both are right.
type breakerModel struct {
	state  BreakerState
	streak int   // consecutive failures while closed
	wait   int64 // ticks before an open breaker may probe
	stats  BreakerStats
}

// step applies one operation and returns Allow's answer (true otherwise).
func (m *breakerModel) step(op, threshold int, cooldown int64) bool {
	strike := op == opFailure || op == opDeparture
	switch {
	case op == opTick && m.wait > 0:
		m.wait--
	case op == opAllow && m.state == BreakerOpen && m.wait > 0:
		m.stats.ShortCircuits++
		return false
	case op == opAllow && m.state != BreakerClosed:
		m.state = BreakerHalfOpen
		m.stats.Probes++
	case op == opSuccess && m.state == BreakerHalfOpen:
		m.state = BreakerClosed
		m.stats.Recoveries++
	case op == opSuccess && m.state == BreakerClosed:
		m.streak = 0
	case op == opDeparture && m.state == BreakerHalfOpen:
		m.stats.InconclusiveProbes++
	case strike && m.state == BreakerClosed && m.streak+1 < threshold:
		m.streak++
	case strike && m.state != BreakerOpen:
		m.state, m.streak, m.wait = BreakerOpen, 0, cooldown
		m.stats.Trips++
	}
	return true
}

// TestBreakerModelCheck walks every sequence of the five operations up to
// length 8 on one peer, at thresholds 1–3 and cooldowns 1–3, against the
// reference model, comparing the state, Allow's answer, the stats and the
// invariants after every step. Sequences share their prefixes: each step
// is undone on the way back up instead of replayed.
func TestBreakerModelCheck(t *testing.T) {
	const peer, depth = 7, 8
	for threshold := 1; threshold <= 3; threshold++ {
		for cooldown := int64(1); cooldown <= 3; cooldown++ {
			bs := newTestBreakers(t, threshold, cooldown)
			var path []int
			var walk func(m breakerModel)
			walk = func(m breakerModel) {
				if len(path) == depth {
					return
				}
				cycle, stats := bs.cycle, bs.stats
				var saved breakerRec
				if peer < len(bs.peers) {
					saved = bs.peers[peer]
				}
				for op := 0; op < nBreakerOps; op++ {
					path = append(path, op)
					next, allowed := m, true
					switch op {
					case opTick:
						bs.Tick()
					case opAllow:
						allowed = bs.Allow(peer)
					case opSuccess:
						bs.RecordSuccess(peer)
					case opFailure:
						bs.RecordFailure(peer)
					case opDeparture:
						bs.RecordDeparture(peer)
					}
					want := next.step(op, threshold, cooldown)
					if allowed != want || bs.State(peer) != next.state || bs.Stats() != next.stats {
						t.Fatalf("threshold %d cooldown %d ops %v: allowed %v state %v stats %+v, model %v %v %+v",
							threshold, cooldown, path, allowed, bs.State(peer), bs.Stats(), want, next.state, next.stats)
					}
					if err := bs.CheckInvariants(); err != nil {
						t.Fatalf("threshold %d cooldown %d ops %v: %v", threshold, cooldown, path, err)
					}
					walk(next)
					path = path[:len(path)-1]
					bs.cycle, bs.stats = cycle, stats
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
	bs.RecordFailure(peer)
	bs.RecordFailure(peer) // trip at cycle 0, reopenAt 4
	for bs.Cycle() < 4 {
		bs.Tick()
	}
	if !bs.Allow(peer) {
		t.Fatal("probe denied after cooldown")
	}
	bs.RecordFailure(peer) // failed probe: immediate re-trip
	if got := bs.State(peer); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if got := bs.Stats().Trips; got != 2 {
		t.Fatalf("trips = %d, want 2 (initial + re-trip)", got)
	}
	// Fresh cooldown: quarantined again until cycle 8.
	bs.Tick()
	if bs.Allow(peer) {
		t.Fatal("re-tripped breaker allowed a request inside its fresh cooldown")
	}
	if got := bs.Stats().Recoveries; got != 0 {
		t.Fatalf("recoveries = %d, want 0", got)
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
	bs.RecordSuccess(1)
	bs.RecordFailure(1)
	bs.Tick()
	if got := bs.State(1); got != BreakerClosed {
		t.Fatalf("nil state = %v, want closed", got)
	}
	if got := bs.Stats(); got != (BreakerStats{}) {
		t.Fatalf("nil stats = %+v, want zero", got)
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
	bs.RecordDeparture(peer)
	if got := bs.State(peer); got != BreakerHalfOpen {
		t.Fatalf("state after probe-target departure = %v, want half-open (no re-trip)", got)
	}
	if got := bs.Stats().Trips; got != 1 {
		t.Fatalf("trips = %d, want 1 (departure must not re-trip)", got)
	}
	if got := bs.Stats().InconclusiveProbes; got != 1 {
		t.Fatalf("inconclusive probes = %d, want 1", got)
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The breaker stays probe-able: the next Allow sends a fresh probe,
	// and a delivered probe reply still closes it.
	if !bs.Allow(peer) {
		t.Fatal("half-open breaker must allow a fresh probe after an inconclusive one")
	}
	bs.RecordSuccess(peer)
	if got := bs.State(peer); got != BreakerClosed {
		t.Fatalf("state after delivered probe = %v, want closed", got)
	}

	// Contrast: a *closed* breaker cannot distinguish departure from
	// silence, so RecordDeparture keeps the legacy strike accounting.
	const other = 11
	bs.RecordDeparture(other)
	bs.RecordDeparture(other)
	bs.RecordDeparture(other)
	if got := bs.State(other); got != BreakerOpen {
		t.Fatalf("closed-state departures = %v, want open (legacy strike accounting)", got)
	}

	// Nil safety.
	var nilBS *BreakerSet
	nilBS.RecordDeparture(3)
}
