package sim

// Chaos soak harness: randomized fault/churn/resilience schedules across
// many seeds, with metamorphic invariants asserted after every run.
//
//	make soak            # the full sweep (SOAK_SCHEDULES=32)
//	go test -run Soak    # the default 20-schedule acceptance sweep
//
// Each schedule draws a random fault profile (loss, damage, churn),
// random resilience knobs (slot deadline, breaker threshold
// and cooldown, retry budget), and — on odd schedules — a byzantine
// attack profile with the audit defense armed, from its own seeded
// stream, runs a small dense world with SelfCheck on, and asserts:
//
// Every fourth schedule additionally arms the Gilbert–Elliott fading
// chain, every fifth a blackout schedule, and a third of the armed
// schedules run the degraded-mode planner (the rest stall naively), so
// correlated losses soak alongside every other mechanism. Every seventh
// schedule arms continuous subscriptions (some on the naive
// always-reverify baseline), so safe-region maintenance soaks against
// faults, byzantine attack, consistency churn, and channel impairments
// too. Every sixth schedule injects a hotspot flash crowd (most with
// the full overload-control stack, one uncontrolled), and every tenth
// arms the controls under plain background load, so admission,
// backpressure, retry budgets, the governor, and coalescing soak
// against everything else. The harness asserts:
//
//   - soundness: every exact result matched the R-tree ground truth, and
//     approximate results are only reported when the run accepts them;
//   - termination: every counted query ended in exactly one of
//     Verified / Approximate / Broadcast / Degraded / Unanswered;
//   - breaker liveness: the per-peer state machines satisfy their
//     invariants (no unbounded quarantine, no stuck states);
//   - counter causality: resilience counters are zero exactly when their
//     knob is zero, and recoveries never exceed trips;
//   - determinism: an identical-seed re-run produces identical Stats,
//     breaker state included.

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"lbsq/internal/faults"
)

// soakSchedules returns how many randomized schedules to run: the
// SOAK_SCHEDULES environment variable, or 20 (the acceptance floor),
// trimmed in -short mode.
func soakSchedules(t *testing.T) int {
	n := 20
	if v := os.Getenv("SOAK_SCHEDULES"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			t.Fatalf("bad SOAK_SCHEDULES %q", v)
		}
		n = parsed
	}
	if testing.Short() && n > 6 {
		n = 6
	}
	return n
}

// soakParams derives one randomized fault/churn/resilience schedule. The
// schedule index seeds both the knob draws and the world, so every
// schedule is reproducible in isolation.
func soakParams(schedule int) Params {
	rng := rand.New(rand.NewSource(0x50414b + int64(schedule)))
	p := LACity().Scaled(1.5).WithDuration(0.1)
	p.Seed = 7000 + int64(schedule)
	p.TimeStepSec = 10
	if schedule%3 == 2 {
		p.Kind = WindowQuery
	} else {
		p.Kind = KNNQuery
		p.AcceptApproximate = rng.Intn(2) == 0
	}

	p.Faults = faults.Profile{
		RequestLoss:   rng.Float64() * 0.5,
		ReplyLoss:     rng.Float64() * 0.3,
		ReplyTruncate: rng.Float64() * 0.15,
		ReplyCorrupt:  rng.Float64() * 0.15,
		BroadcastLoss: rng.Float64() * 0.2,
	}
	// The draw the retired Bernoulli staleness knob took stays, thrown
	// away, so every later knob keeps its historical value.
	_ = rng.Float64()
	p.Faults.ChurnRate = 0.05 + rng.Float64()*0.3
	p.Faults.MaxRetries = 1 + rng.Intn(6)
	p.DeadlineSlots = 4 + rng.Intn(24)
	p.BreakerThreshold = 2 + rng.Intn(4)
	p.BreakerCooldown = int64(2 + rng.Intn(12))

	// A slice of the schedules zeroes individual resilience knobs — and
	// every fifth all three — so the harness also soaks the partial and
	// policy-off configurations (and their "counter is zero when the knob
	// is zero" contracts).
	switch schedule % 5 {
	case 0:
		p.Faults.ChurnRate = 0
		p.DeadlineSlots = 0
		p.BreakerThreshold = 0
		p.BreakerCooldown = 0
	case 1:
		p.Faults.ChurnRate = 0
	case 2:
		p.DeadlineSlots = 0
	case 3:
		p.BreakerThreshold = 0
		p.BreakerCooldown = 0
	}

	// Byzantine/trust schedules (drawn after every legacy knob so the
	// trust-free schedules keep their exact historical draws). Odd
	// schedules arm lying peers together with the audit defense — the
	// soundness assert in checkSoakInvariants then doubles as the
	// "SelfCheck stays green under attack" acceptance invariant. Lies are
	// never soaked without audits: that configuration fails open by
	// design and is pinned separately by TestByzantineNoTrustFailsOpen.
	if schedule%2 == 1 {
		p.PrefillQueriesPerHost = 5 // caches worth lying about from t=0
		p.Faults.ByzantineRate = rng.Float64() * 0.5
		p.Faults.Attack = faults.Attack(1 + rng.Intn(5))
		p.AuditRate = 0.25 + rng.Float64()*0.75
	}

	// Consistency schedules (drawn after every legacy knob so the
	// consistency-free schedules keep their exact historical draws).
	// Every third schedule arms the POI-update process — including odd
	// ones, so churn soaks together with byzantine attack and the
	// stale-vs-byzantine verdict split gets exercised; every ninth also
	// runs the whole-discard ablation. VR TTL arms independently on
	// multiples of six (it works without the update process).
	if schedule%3 == 0 {
		p.UpdateRate = 1 + rng.Float64()*8
		p.IRPeriodSec = 15 + rng.Float64()*30
		p.IRWindow = 2 + rng.Intn(10)
		p.UseOwnCache = true // soak the own-cache reconcile/demote path
		if schedule%9 == 0 {
			p.IRDiscard = true
		}
	}
	if schedule%6 == 0 {
		p.VRTTLSec = 60 + rng.Float64()*240
	}

	// Channel-impairment schedules (drawn after every legacy knob so the
	// impairment-free schedules keep their exact historical draws). Every
	// fourth schedule arms the Gilbert–Elliott fading chain — sometimes a
	// deep fade, sometimes merely lossy — and every fifth a blackout
	// schedule, offset so the combinations (and burst+byzantine,
	// blackout+consistency) occur too. A third of the armed schedules run
	// the fallback-ladder planner, the rest the naive stall, so both
	// regimes soak.
	if schedule%4 == 3 {
		p.Faults.BurstBadLoss = 0.6 + rng.Float64()*0.4
		p.Faults.BurstBadSlots = 100 + rng.Float64()*500
		p.Faults.BurstGoodSlots = 3 * p.Faults.BurstBadSlots
		rng.Float64() // the retired good-state loss: later draws keep their place
	}
	if schedule%5 == 4 {
		p.Faults.BlackoutPeriodSec = 40 + rng.Float64()*80
		p.Faults.BlackoutDurationSec = 10 + rng.Float64()*20
	}
	if (p.Faults.BurstEnabled() || p.Faults.BlackoutEnabled()) && schedule%3 == 1 {
		p.DegradedMode = true
	}

	// Continuous-subscription schedules (drawn after every legacy knob so
	// the continuous-free schedules keep their exact historical draws).
	// Every seventh schedule (offset 2) arms standing subscriptions, so
	// across a sweep they combine with byzantine attack (9), consistency
	// plus the discard ablation (9, 30), and burst fading (23). A third
	// of the armed schedules run the naive always-reverify baseline, the
	// rest the safe-region path.
	if schedule%7 == 2 {
		p.ContinuousRate = 0.5 + rng.Float64()*4
		p.ContinuousNaive = schedule%3 == 0
	}

	// Flash-crowd/overload schedules (drawn after every legacy knob so
	// crowd-free schedules keep their exact historical draws). Every
	// sixth schedule (offset 5) injects a hotspot burst; those arm the
	// full overload-control stack except every twelfth (offset 11),
	// which soaks the uncontrolled crowd. Every tenth schedule (offset
	// 9) arms the controls without a crowd, so the control plane also
	// soaks under plain background load (and combined with blackout at
	// 9, byzantine at 9 and 19, continuous at 9).
	crowd := schedule%6 == 5
	overloadCtl := (crowd && schedule%12 != 11) || schedule%10 == 9
	if crowd {
		p.CrowdRate = p.QueryRate * (4 + rng.Float64()*8)
		p.CrowdRadiusMiles = 0.2 + rng.Float64()*0.5
	}
	if overloadCtl {
		p.PeerQueueCap = 2 + rng.Intn(6)
		// Tight: a handful of retry rounds per tick, so exhaustion (and
		// its bounded-amplification contract) actually soaks.
		p.RetryBudget = 2 + rng.Intn(14)
		p.AdmissionRate = 0.05 + rng.Float64()*0.2
		p.AdmissionBurst = 2 + rng.Intn(6)
		p.GovernorFloor = 0.6 + rng.Float64()*0.35
		p.CoalesceRadiusMiles = 0.15 + rng.Float64()*0.5
	}

	// Window kind is schedule%3 == 2 and POI updates are schedule%3 == 0,
	// so byzantine peers × audits × surgical repair would only ever soak
	// under kNN: schedule 3 (odd, updates, no discard) runs as a window
	// world. Decided after every draw, so no schedule's draws move.
	if schedule == 3 {
		p.Kind = WindowQuery
		p.AcceptApproximate = false
	}
	return p
}

// runSoakWorld builds and runs one schedule with self-checking on.
func runSoakWorld(t *testing.T, p Params) (*World, Stats) {
	t.Helper()
	w, err := NewWorld(p)
	if err != nil {
		t.Fatalf("schedule world: %v", err)
	}
	w.SelfCheck = true
	s := w.Run()
	return w, s
}

// checkSoakInvariants asserts the metamorphic invariants one soak run
// must satisfy regardless of its schedule.
func checkSoakInvariants(t *testing.T, p Params, w *World, s Stats) {
	t.Helper()

	// Soundness: exact results match ground truth under every schedule.
	if err := w.SelfCheckErr(); err != nil {
		t.Errorf("self-check failed: %v", err)
	}
	checkCachesBounded(t, w)
	// Termination: every counted query ended in exactly one outcome
	// (Degraded and Unanswered only exist on the planner's channel-less
	// rungs; both stay zero on impairment-free schedules).
	if got := s.Verified + s.Approximate + s.Broadcast + s.Degraded + s.Unanswered; got != s.Queries {
		t.Errorf("outcomes %d != queries %d (verified=%d approx=%d broadcast=%d degraded=%d unanswered=%d)",
			got, s.Queries, s.Verified, s.Approximate, s.Broadcast, s.Degraded, s.Unanswered)
	}
	if s.Queries == 0 {
		t.Error("schedule ran zero queries")
	}
	// Approximate answers only appear when the run accepts them (and
	// never for window queries).
	if (p.Kind == WindowQuery || !p.AcceptApproximate) && s.Approximate != 0 {
		t.Errorf("unaccepted approximate answers reported: %d", s.Approximate)
	}

	// Breaker liveness and bookkeeping.
	if err := w.breakers.CheckInvariants(); err != nil {
		t.Errorf("breaker invariants: %v", err)
	}
	if s.BreakerRecoveries > s.BreakerTrips {
		t.Errorf("recoveries %d exceed trips %d", s.BreakerRecoveries, s.BreakerTrips)
	}
	if s.BreakerShortCircuits > 0 && s.BreakerTrips == 0 {
		t.Errorf("short-circuits %d without any trip", s.BreakerShortCircuits)
	}

	// Counter causality: a zero knob must leave its counters at zero.
	if p.Faults.ChurnRate == 0 &&
		(s.ChurnDepartures != 0 || s.ChurnReturns != 0 || s.WastedRetries != 0) {
		t.Errorf("churn counters fired with churn off: %d/%d wasted=%d",
			s.ChurnDepartures, s.ChurnReturns, s.WastedRetries)
	}
	if p.DeadlineSlots == 0 && s.DeadlineAborts != 0 {
		t.Errorf("deadline aborts %d with no deadline", s.DeadlineAborts)
	}
	if p.BreakerThreshold == 0 &&
		(s.BreakerTrips != 0 || s.BreakerShortCircuits != 0 || s.BreakerRecoveries != 0) {
		t.Errorf("breaker counters fired with breakers off: %d/%d/%d",
			s.BreakerTrips, s.BreakerShortCircuits, s.BreakerRecoveries)
	}
	if s.WastedRetries > 0 && s.ChurnDepartures == 0 {
		t.Errorf("wasted retries %d without departures", s.WastedRetries)
	}
	if p.AuditRate == 0 && s.Events("trust") != 0 {
		t.Errorf("trust counters fired with audits off: %+v", s)
	}
	if p.Faults.ByzantineRate == 0 && s.ByzantineLies != 0 {
		t.Errorf("lies counted with byzantine off: %d", s.ByzantineLies)
	}
	// Honest substrate (no lies, no stale regions surviving to the
	// screen) must never be convicted by the defense itself.
	if p.Faults.ByzantineRate == 0 &&
		(s.AuditFailures != 0 || s.ConflictsDetected != 0 || s.PeersQuarantined != 0) {
		t.Errorf("defense convicted honest peers: failures=%d conflicts=%d quarantined=%d",
			s.AuditFailures, s.ConflictsDetected, s.PeersQuarantined)
	}
	if s.AuditFailures > s.AuditsRun {
		t.Errorf("audit failures %d exceed audits %d", s.AuditFailures, s.AuditsRun)
	}

	// Consistency counter causality: the layer off must leave every one of
	// its counters at zero, TTL expiry fires only with a TTL, and IR
	// replica waits require broadcast loss.
	if p.UpdateRate == 0 &&
		(s.POIUpdates != 0 || s.IRBroadcasts != 0 || s.IRListens != 0 ||
			s.IRListenSlots != 0 || s.IRListenRetries != 0 ||
			s.VRsReconciled != 0 || s.VRsDemoted != 0 || s.VRsDiscarded != 0 ||
			s.StaleVerdicts != 0) {
		t.Errorf("consistency counters fired with updates off: %+v", s)
	}
	if p.VRTTLSec == 0 && s.VRsExpired != 0 {
		t.Errorf("TTL expiry %d with no TTL", s.VRsExpired)
	}
	if s.IRListenRetries > 0 && p.Faults.BroadcastLoss == 0 {
		t.Errorf("IR replica waits %d without broadcast loss", s.IRListenRetries)
	}
	if s.IRListens > 0 && s.IRBroadcasts == 0 {
		t.Errorf("IR listens %d without any IR broadcast", s.IRListens)
	}
	if s.POIUpdates > 0 && s.IRBroadcasts == 0 {
		t.Errorf("POI updates %d never announced on air", s.POIUpdates)
	}

	// Channel counter causality: each impairment's counters are zero
	// exactly when its knob is off, and the planner's rungs are reachable
	// only under the impairment that opens them.
	if !p.Faults.BurstEnabled() &&
		(s.BurstFrameLosses != 0 || s.BurstTransitions != 0 || s.FadeSuppressedStrikes != 0 ||
			s.ModeOnAirOnly != 0 || s.ModeOwnCache != 0) {
		t.Errorf("burst counters fired with the chain off: losses=%d transitions=%d suppressed=%d onair=%d owncache=%d",
			s.BurstFrameLosses, s.BurstTransitions, s.FadeSuppressedStrikes,
			s.ModeOnAirOnly, s.ModeOwnCache)
	}
	if !p.Faults.BlackoutEnabled() &&
		(s.BlackoutQueries != 0 || s.BlackoutWaitSlots != 0 || s.BlackoutRecoveries != 0 ||
			s.IRDeferred != 0 || s.ModeP2POnly != 0 || s.ModeOwnCache != 0) {
		t.Errorf("blackout counters fired with no schedule: queries=%d wait=%d recoveries=%d deferred=%d p2ponly=%d owncache=%d",
			s.BlackoutQueries, s.BlackoutWaitSlots, s.BlackoutRecoveries,
			s.IRDeferred, s.ModeP2POnly, s.ModeOwnCache)
	}
	if !p.DegradedMode &&
		(s.ModeP2POnly != 0 || s.ModeOnAirOnly != 0 || s.ModeOwnCache != 0 ||
			s.ModeSwitchSlots != 0 || s.Degraded != 0 || s.Unanswered != 0 ||
			s.StaleBoundMaxSec != 0) {
		t.Errorf("planner counters fired with the planner off: %+v", s)
	}
	if p.DegradedMode && (s.BlackoutQueries != 0 || s.BlackoutWaitSlots != 0) {
		t.Errorf("planner run stalled naively: queries=%d wait=%d",
			s.BlackoutQueries, s.BlackoutWaitSlots)
	}
	if !p.Faults.BurstEnabled() && !p.Faults.BlackoutEnabled() && p.GovernorFloor == 0 && s.AnsweredInBudget != 0 {
		t.Errorf("availability tally %d without any channel impairment or governor", s.AnsweredInBudget)
	}
	if p.BreakerThreshold == 0 && s.FadeSuppressedStrikes != 0 {
		t.Errorf("fade-suppressed strikes %d with breakers off", s.FadeSuppressedStrikes)
	}
	if s.IRListenAborts > 0 && p.Faults.BroadcastLoss == 0 {
		t.Errorf("IR listen aborts %d without broadcast loss", s.IRListenAborts)
	}
	if s.StaleBoundMaxSec != 0 && s.ModeOwnCache == 0 {
		t.Errorf("staleness bound %d without any own-cache-rung query", s.StaleBoundMaxSec)
	}

	// Continuous counter causality: the layer off leaves every counter at
	// zero; armed, re-verifications partition exactly by reason, the
	// naive baseline never takes a safe-region hit, and taint
	// re-verifications require an invalidation source.
	if p.ContinuousRate == 0 && s.Events("continuous") != 0 {
		t.Errorf("continuous counters fired with the knob off: %+v", s)
	}
	if s.Reverifies != s.ReverifyExits+s.ReverifyTaints+s.ReverifyUnverified+s.ReverifyNaive {
		t.Errorf("reverify reasons do not partition reverifies: %+v", s)
	}
	if p.ContinuousNaive && s.SafeRegionHits != 0 {
		t.Errorf("naive baseline took %d safe-region hits", s.SafeRegionHits)
	}
	if !p.ContinuousNaive && s.ReverifyNaive != 0 {
		t.Errorf("naive reverifies %d with the baseline off", s.ReverifyNaive)
	}
	if s.ReverifyTaints > 0 && p.UpdateRate == 0 && p.VRTTLSec == 0 {
		t.Errorf("taint reverifies %d with no update process or TTL", s.ReverifyTaints)
	}

	// Overload counter causality: the plane off leaves every counter at
	// zero, each mechanism's counters require its knob, sheds partition
	// exactly by cause, and governor sheds require an engaged tick.
	if !p.CrowdEnabled() && !p.OverloadEnabled() && s.Events("overload") != 0 {
		t.Errorf("overload counters fired with the plane off: %+v", s)
	}
	if p.CrowdRate == 0 && s.CrowdQueries != 0 {
		t.Errorf("crowd queries %d with no crowd", s.CrowdQueries)
	}
	if p.PeerQueueCap == 0 && (s.BusyReplies != 0 || s.QueueDrops != 0) {
		t.Errorf("backpressure fired with no queue cap: busy=%d drops=%d",
			s.BusyReplies, s.QueueDrops)
	}
	if p.RetryBudget == 0 && s.RetryBudgetExhausted != 0 {
		t.Errorf("retry budget exhausted %d with no budget", s.RetryBudgetExhausted)
	}
	if p.AdmissionRate == 0 && s.AdmissionDenied != 0 {
		t.Errorf("admission denied %d with no buckets", s.AdmissionDenied)
	}
	if p.GovernorFloor == 0 && (s.GovernorSheds != 0 || s.GovernorEngagedTicks != 0) {
		t.Errorf("governor fired while off: sheds=%d ticks=%d",
			s.GovernorSheds, s.GovernorEngagedTicks)
	}
	if p.CoalesceRadiusMiles == 0 && s.Coalesced != 0 {
		t.Errorf("coalesced gathers %d with coalescing off", s.Coalesced)
	}
	if s.Shed != s.AdmissionDenied+s.GovernorSheds {
		t.Errorf("shed causes do not partition sheds: shed=%d admission=%d governor=%d",
			s.Shed, s.AdmissionDenied, s.GovernorSheds)
	}
	if s.GovernorSheds > 0 && s.GovernorEngagedTicks == 0 {
		t.Errorf("governor sheds %d without any engaged tick", s.GovernorSheds)
	}
}

// TestChaosSoak is the acceptance harness: randomized fault/churn
// schedules across seeds, invariants after every run, and identical-seed
// determinism (Stats, the fault stream, and breaker state included).
func TestChaosSoak(t *testing.T) {
	n := soakSchedules(t)
	var agg Stats
	for schedule := 0; schedule < n; schedule++ {
		schedule := schedule
		t.Run("schedule"+strconv.Itoa(schedule), func(t *testing.T) {
			p := soakParams(schedule)
			w, s := runSoakWorld(t, p)
			checkSoakInvariants(t, p, w, s)

			// Identical seed ⇒ identical Stats, breaker state included.
			w2, s2 := runSoakWorld(t, p)
			if s != s2 {
				t.Errorf("stats diverged under identical seed:\n%+v\nvs\n%+v", s, s2)
			}
			if !sameFaultStream(w, w2) {
				t.Error("fault streams diverged")
			}
			if !sameBreakerStates(w, w2) || w.breakers.Cycle() != w2.breakers.Cycle() {
				t.Errorf("breaker state diverged: per-host states differ or cycle %d/%d",
					w.breakers.Cycle(), w2.breakers.Cycle())
			}

			agg.DeadlineAborts += s.DeadlineAborts
			agg.BreakerTrips += s.BreakerTrips
			agg.BreakerShortCircuits += s.BreakerShortCircuits
			agg.ChurnDepartures += s.ChurnDepartures
			agg.WastedRetries += s.WastedRetries
			agg.ByzantineLies += s.ByzantineLies
			agg.AuditsRun += s.AuditsRun
			agg.PeersQuarantined += s.PeersQuarantined
			agg.POIUpdates += s.POIUpdates
			agg.VRsReconciled += s.VRsReconciled
			agg.VRsDemoted += s.VRsDemoted
			agg.VRsExpired += s.VRsExpired
			agg.BurstFrameLosses += s.BurstFrameLosses
			agg.BurstTransitions += s.BurstTransitions
			agg.BlackoutRecoveries += s.BlackoutRecoveries
			agg.BlackoutQueries += s.BlackoutQueries
			agg.ModeP2POnly += s.ModeP2POnly
			agg.ModeOnAirOnly += s.ModeOnAirOnly
			agg.AnsweredInBudget += s.AnsweredInBudget
			agg.Subscriptions += s.Subscriptions
			agg.SafeRegionHits += s.SafeRegionHits
			agg.Reverifies += s.Reverifies
			agg.CrowdQueries += s.CrowdQueries
			agg.BusyReplies += s.BusyReplies
			agg.QueueDrops += s.QueueDrops
			agg.Shed += s.Shed
			agg.GovernorEngagedTicks += s.GovernorEngagedTicks
			agg.RetryBudgetExhausted += s.RetryBudgetExhausted
			agg.Coalesced += s.Coalesced
		})
	}

	// Across a full sweep every headline resilience mechanism must have
	// exercised at least once — otherwise the harness is soaking nothing.
	if n >= 20 {
		if agg.DeadlineAborts == 0 {
			t.Error("no schedule ever aborted on deadline")
		}
		if agg.BreakerTrips == 0 {
			t.Error("no schedule ever tripped a breaker")
		}
		if agg.BreakerShortCircuits == 0 {
			t.Error("no schedule ever short-circuited a request")
		}
		if agg.ChurnDepartures == 0 {
			t.Error("no schedule ever churned a peer")
		}
		if agg.WastedRetries == 0 {
			t.Error("no schedule ever wasted a retry on a departed peer")
		}
		if agg.ByzantineLies == 0 {
			t.Error("no schedule ever told a byzantine lie")
		}
		if agg.AuditsRun == 0 {
			t.Error("no schedule ever ran a spot audit")
		}
		if agg.PeersQuarantined == 0 {
			t.Error("no schedule ever quarantined a lying peer")
		}
		if agg.POIUpdates == 0 {
			t.Error("no schedule ever mutated a POI")
		}
		if agg.VRsReconciled == 0 {
			t.Error("no schedule ever reconciled a verified region")
		}
		if agg.VRsDemoted == 0 {
			t.Error("no schedule ever demoted a beyond-horizon region")
		}
		if agg.VRsExpired == 0 {
			t.Error("no schedule ever expired a region by TTL")
		}
		if agg.BurstFrameLosses == 0 || agg.BurstTransitions == 0 {
			t.Errorf("the fading chain never bit: losses=%d transitions=%d",
				agg.BurstFrameLosses, agg.BurstTransitions)
		}
		if agg.BlackoutRecoveries == 0 {
			t.Error("no schedule ever reacquired the downlink after a blackout")
		}
		if agg.BlackoutQueries == 0 {
			t.Error("no naive schedule ever stalled on a blackout window")
		}
		if agg.ModeP2POnly+agg.ModeOnAirOnly == 0 {
			t.Error("no planner schedule ever stepped down the fallback ladder")
		}
		if agg.AnsweredInBudget == 0 {
			t.Error("no impaired schedule ever answered a query in budget")
		}
		if agg.Subscriptions == 0 || agg.Reverifies == 0 {
			t.Errorf("no schedule ever exercised a continuous subscription: subs=%d reverifies=%d",
				agg.Subscriptions, agg.Reverifies)
		}
		if agg.SafeRegionHits == 0 {
			t.Error("no continuous schedule ever took a safe-region hit")
		}
		if agg.CrowdQueries == 0 {
			t.Error("no schedule ever injected a crowd query")
		}
		if agg.BusyReplies == 0 {
			t.Error("no schedule ever pushed back with a BUSY frame")
		}
		if agg.Shed == 0 {
			t.Error("no schedule ever shed a query to the broadcast path")
		}
		if agg.RetryBudgetExhausted == 0 {
			t.Error("no schedule ever exhausted a retry budget")
		}
		if agg.Coalesced == 0 {
			t.Error("no schedule ever coalesced a co-located gather")
		}
	}
}
