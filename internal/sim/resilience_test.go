package sim

// Behavioral tests for the resilient query lifecycle: slot-budget
// deadlines, adaptive backoff, per-peer circuit breakers, and peer churn.
// The chaos soak harness (soak_test.go) covers randomized schedules; these
// tests pin each mechanism's direction of effect in isolation.

import (
	"testing"

	"lbsq/internal/faults"
)

// resilientWorld builds a dense faulty world and layers resilience knobs
// on top of the given profile.
func resilientWorld(t *testing.T, seed int64, prof faults.Profile,
	deadline, threshold int, cooldown int64) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = KNNQuery
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = true
	p.Faults = prof
	p.DeadlineSlots = deadline
	p.BreakerThreshold = threshold
	p.BreakerCooldown = cooldown
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	return w
}

// TestDeadlineAbortsFireAndStaySound: heavy request loss with a deep retry
// budget but a tight slot deadline must abort collections, price the spent
// slots into latency, and still answer every query soundly.
func TestDeadlineAbortsFireAndStaySound(t *testing.T) {
	prof := faults.Profile{RequestLoss: 0.7, MaxRetries: 6}
	w := resilientWorld(t, 31, prof, 6, 0, 0)
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.DeadlineAborts == 0 {
		t.Error("tight deadline with deep retries never aborted")
	}
	if s.BackoffSlots == 0 {
		t.Error("retries happened but no backoff slots were spent")
	}
	if got := s.Verified + s.Approximate + s.Broadcast; got != s.Queries {
		t.Errorf("outcomes %d != queries %d", got, s.Queries)
	}
}

// TestDeadlineBoundsBackoffSpend: the tighter the deadline, the fewer
// backoff slots a run may spend waiting — and a run that aborts more also
// retries less.
func TestDeadlineBoundsBackoffSpend(t *testing.T) {
	prof := faults.Profile{RequestLoss: 0.7, MaxRetries: 6}
	tight := resilientWorld(t, 32, prof, 4, 0, 0).Run()
	loose := resilientWorld(t, 32, prof, 64, 0, 0).Run()
	if tight.DeadlineAborts <= loose.DeadlineAborts {
		t.Errorf("tight deadline aborted %d, loose %d — want strictly more",
			tight.DeadlineAborts, loose.DeadlineAborts)
	}
	if tight.BackoffSlots >= loose.BackoffSlots {
		t.Errorf("tight deadline spent %d backoff slots, loose %d — want strictly fewer",
			tight.BackoffSlots, loose.BackoffSlots)
	}
}

// TestBreakersQuarantineDamagedPeers: with reply damage high enough that
// CRC rejections recur per peer, breakers must trip, short-circuit retry
// traffic during cooldown, and recover via half-open probes.
func TestBreakersQuarantineDamagedPeers(t *testing.T) {
	prof := faults.Profile{
		ReplyTruncate: 0.35, ReplyCorrupt: 0.35, MaxRetries: 3,
	}
	w := resilientWorld(t, 33, prof, 0, 2, 4)
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.BreakerTrips == 0 {
		t.Error("heavy reply damage never tripped a breaker")
	}
	if s.BreakerShortCircuits == 0 {
		t.Error("tripped breakers never short-circuited a request")
	}
	if s.BreakerRecoveries == 0 {
		t.Error("no half-open probe ever recovered a peer")
	}
	if s.BreakerRecoveries > s.BreakerTrips {
		t.Errorf("recoveries %d exceed trips %d", s.BreakerRecoveries, s.BreakerTrips)
	}
	if err := w.breakers.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakersSaveReplyTraffic: quarantining flaky peers must reduce the
// ad-hoc reply load relative to the same schedule without breakers — a
// short-circuited peer is never addressed, so it generates no reply frame
// (sound, damaged, or dropped) for the whole cooldown.
func TestBreakersSaveReplyTraffic(t *testing.T) {
	prof := faults.Profile{
		ReplyTruncate: 0.4, ReplyCorrupt: 0.4, MaxRetries: 3,
	}
	frames := func(s Stats) int64 {
		return s.PeerReplies + s.RepliesRejected + s.RepliesDropped
	}
	with := resilientWorld(t, 34, prof, 0, 2, 8).Run()
	// Deadline 1<<20 keeps the resilient code path selected while breakers
	// are off, so the comparison isolates the breaker effect.
	without := resilientWorld(t, 34, prof, 1<<20, 0, 0).Run()
	if with.BreakerShortCircuits == 0 {
		t.Fatal("breakers never short-circuited — comparison is vacuous")
	}
	if frames(with) >= frames(without) {
		t.Errorf("breakers did not reduce reply load: %d frames with, %d without",
			frames(with), frames(without))
	}
}

// TestChurnWastesRetries: with churn on and a retry budget, departed peers
// must be counted, retries addressed at them must be flagged wasted, and
// some departed peers must return.
func TestChurnWastesRetries(t *testing.T) {
	prof := faults.Profile{
		RequestLoss: 0.4, ChurnRate: 0.25, MaxRetries: 4,
	}
	w := resilientWorld(t, 35, prof, 0, 0, 0)
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.ChurnDepartures == 0 {
		t.Error("25% churn never departed a peer")
	}
	if s.ChurnReturns == 0 {
		t.Error("no departed peer ever returned")
	}
	if s.WastedRetries == 0 {
		t.Error("no retry was ever wasted on a departed peer")
	}
	// Wasted retries are counted per departed target per retry round, so
	// they require both a departure and at least one retry broadcast.
	if s.WastedRetries > 0 && (s.ChurnDepartures == 0 || s.PeerRetries == 0) {
		t.Errorf("wasted=%d with departures=%d retries=%d",
			s.WastedRetries, s.ChurnDepartures, s.PeerRetries)
	}
}

// TestResilientDeterminism: identical seeds with every resilience knob
// active must reproduce Stats, the injector stream, and breaker state.
func TestResilientDeterminism(t *testing.T) {
	prof := faults.Profile{
		RequestLoss: 0.3, ReplyLoss: 0.15, ReplyTruncate: 0.1,
		ReplyCorrupt: 0.1, ChurnRate: 0.15, MaxRetries: 4,
	}
	a := resilientWorld(t, 36, prof, 12, 3, 6)
	b := resilientWorld(t, 36, prof, 12, 3, 6)
	sa, sb := a.Run(), b.Run()
	if sa != sb {
		t.Fatalf("stats diverged under identical seed:\n%+v\nvs\n%+v", sa, sb)
	}
	if !sameFaultStream(a, b) {
		t.Fatal("injector streams diverged under identical seed")
	}
	if !sameBreakerStates(a, b) || a.breakers.Cycle() != b.breakers.Cycle() {
		t.Fatal("breaker state diverged under identical seed")
	}
	if sa.Events("resilience") == 0 {
		t.Error("fully-knobbed run reported no resilience activity")
	}
}

// TestResilienceValidation: the new knobs reject nonsense configurations.
func TestResilienceValidation(t *testing.T) {
	p := LACity()
	p.DeadlineSlots = -1
	if err := p.Validate(); err == nil {
		t.Error("negative deadline accepted")
	}
	p = LACity()
	p.BreakerThreshold = -2
	if err := p.Validate(); err == nil {
		t.Error("negative breaker threshold accepted")
	}
	p = LACity()
	p.BreakerCooldown = -3
	if err := p.Validate(); err == nil {
		t.Error("negative breaker cooldown accepted")
	}
	p = LACity()
	p.Faults.ChurnRate = 1.5
	if err := p.Validate(); err == nil {
		t.Error("churn rate above 1 accepted")
	}
	p = LACity()
	p.DeadlineSlots = 16
	p.BreakerThreshold = 3
	p.BreakerCooldown = 8
	p.Faults.ChurnRate = 0.2
	if err := p.Validate(); err != nil {
		t.Errorf("valid resilient config rejected: %v", err)
	}
}
