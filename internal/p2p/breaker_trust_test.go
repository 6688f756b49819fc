package p2p

import "testing"

// Regression for the half-open accounting audit: RecordSuccess used to
// close an OPEN breaker unconditionally. The scenario is real under
// churn — a peer trips mid-collection (or is convicted by the trust
// layer via ForceOpen), departs, and a pre-trip reply still in flight is
// delivered in a later round. Honoring that late success re-entered
// closed state on stale reputation, bypassing the cooldown and erasing
// the conviction. Success must only count as recovery through the
// half-open probe.
func TestLateSuccessDoesNotCloseOpenBreaker(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: 4})
	bs.RecordFailure(1)
	bs.RecordFailure(1) // trips open
	if bs.State(1) != BreakerOpen {
		t.Fatalf("setup: state %v", bs.State(1))
	}
	// Late delivery of a pre-trip reply.
	if bs.RecordSuccess(1) {
		t.Fatal("late success reported a recovery")
	}
	if got := bs.State(1); got != BreakerOpen {
		t.Fatalf("late success closed an open breaker: %v", got)
	}
	// Inside the cooldown the peer still short-circuits.
	if bs.Allow(1) {
		t.Fatal("open breaker allowed a request inside cooldown")
	}
	// Recovery goes through the probe.
	for i := int64(0); i < 4; i++ {
		bs.Tick()
	}
	if !bs.Allow(1) {
		t.Fatal("cooldown elapsed but probe not allowed")
	}
	if bs.State(1) != BreakerHalfOpen {
		t.Fatalf("state after probe allow: %v", bs.State(1))
	}
	if !bs.RecordSuccess(1) || bs.State(1) != BreakerClosed {
		t.Fatalf("probe success did not recover: state=%v", bs.State(1))
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ForceOpen is the trust layer's conviction hook: it trips regardless of
// the failure count (a convicted peer may have zero channel failures).
func TestForceOpenConvictsWithoutFailures(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Threshold: 5, Cooldown: 3})
	if bs.State(7) != BreakerClosed {
		t.Fatalf("setup: %v", bs.State(7))
	}
	if !bs.ForceOpen(7) {
		t.Fatal("ForceOpen on a closed breaker reported no trip")
	}
	if bs.State(7) != BreakerOpen {
		t.Fatalf("ForceOpen did not open: %v", bs.State(7))
	}
	if bs.Allow(7) {
		t.Fatal("convicted peer allowed inside cooldown")
	}
	// A late sound reply from the convicted peer must not erase the
	// conviction (the stale-reputation hazard).
	bs.RecordSuccess(7)
	if bs.State(7) != BreakerOpen {
		t.Fatalf("success erased a conviction: %v", bs.State(7))
	}
	// Parole: cooldown elapses, half-open probe, recovery.
	bs.Tick()
	bs.Tick()
	bs.Tick()
	if !bs.Allow(7) || bs.State(7) != BreakerHalfOpen {
		t.Fatalf("parole probe unavailable: %v", bs.State(7))
	}
	bs.RecordSuccess(7)
	if bs.State(7) != BreakerClosed {
		t.Fatalf("parole recovery failed: %v", bs.State(7))
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Re-convicting an already-open peer refreshes the quarantine horizon
// without inflating the trip count, and the refreshed horizon still
// satisfies the no-unbounded-quarantine invariant.
func TestForceOpenRefreshWhileOpen(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: 4})
	if !bs.ForceOpen(3) {
		t.Fatal("ForceOpen on a closed breaker reported no trip")
	}
	bs.Tick()
	bs.Tick()
	if bs.ForceOpen(3) { // fresh conviction mid-cooldown
		t.Fatal("refresh recounted the trip")
	}
	// Two cycles later the original cooldown would have elapsed; the
	// refresh keeps the peer quarantined.
	bs.Tick()
	bs.Tick()
	if bs.Allow(3) {
		t.Fatal("refreshed conviction expired on the original schedule")
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And it still half-opens eventually (liveness).
	bs.Tick()
	bs.Tick()
	if !bs.Allow(3) {
		t.Fatal("refreshed conviction never paroled")
	}
}

// A paroled-then-departed peer that returns keeps its reputation
// trajectory: failed probe re-trips, and a conviction during half-open
// also re-opens.
func TestParoleFailureRetrips(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: 2})
	bs.ForceOpen(9)
	bs.Tick()
	bs.Tick()
	if !bs.Allow(9) || bs.State(9) != BreakerHalfOpen {
		t.Fatalf("parole setup failed: %v", bs.State(9))
	}
	// The probe reply fails (or the trust layer convicts again).
	if !bs.RecordFailure(9) || bs.State(9) != BreakerOpen {
		t.Fatalf("failed probe did not re-trip: state=%v", bs.State(9))
	}
	// ForceOpen during half-open also re-opens (conviction beats probe).
	bs.Tick()
	bs.Tick()
	bs.Allow(9)
	if bs.State(9) != BreakerHalfOpen {
		t.Fatalf("second parole failed: %v", bs.State(9))
	}
	if !bs.ForceOpen(9) || bs.State(9) != BreakerOpen {
		t.Fatalf("conviction during half-open ignored: %v", bs.State(9))
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ForceOpen on a nil set is a no-op (trust without breakers).
func TestForceOpenNilSet(t *testing.T) {
	var bs *BreakerSet
	bs.ForceOpen(1) // must not panic
	if bs.State(1) != BreakerClosed {
		t.Fatal("nil set reported non-closed state")
	}
}
