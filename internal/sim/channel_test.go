package sim

// Behavioral tests for the correlated-failure channel layer (DESIGN.md
// §13): Gilbert–Elliott burst fading, per-MH blackout windows, and the
// degraded-mode fallback ladder. The zero-knob byte-identity contract is
// verified binary-vs-binary out of band; these tests pin the in-process
// invariants — termination, self-check soundness at every grid point,
// no false convictions, and the ladder's availability win over the
// naive stall-and-retry baseline.

import (
	"reflect"
	"testing"

	"lbsq/internal/faults"
)

// channelWorld builds a small dense world and lets the caller arm
// channel and resilience knobs on top.
func channelWorld(t *testing.T, seed int64, mutate func(*Params)) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.1)
	p.Kind = KNNQuery
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = true
	if mutate != nil {
		mutate(&p)
	}
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	return w
}

// burstProfile is a deep-fade Gilbert–Elliott config: the bad state
// kills every frame (a deep fade by the DeepFadeLoss threshold), dwells
// are long relative to a collection round so fades persist through it.
func burstProfile() faults.Profile {
	return faults.Profile{
		BurstBadLoss:   1,
		BurstBadSlots:  400,  // 2 s of dead air per fade at 0.05 s/slot
		BurstGoodSlots: 1200, // 25% of slots faded
	}
}

// blackoutProfile schedules per-MH downlink outages with a 1/3 duty
// cycle.
func blackoutProfile() faults.Profile {
	return faults.Profile{BlackoutPeriodSec: 60, BlackoutDurationSec: 20}
}

// checkTermination pins the extended outcome partition: every counted
// query lands in exactly one of the five outcome classes.
func checkTermination(t *testing.T, s Stats) {
	t.Helper()
	if got := s.Verified + s.Approximate + s.Broadcast + s.Degraded + s.Unanswered; got != s.Queries {
		t.Errorf("outcome classes sum to %d, want %d queries (v=%d a=%d b=%d d=%d u=%d)",
			got, s.Queries, s.Verified, s.Approximate, s.Broadcast, s.Degraded, s.Unanswered)
	}
}

// TestChannelLayerZeroWhenUnarmed: a run with only legacy knobs armed
// (Bernoulli losses, churn, deadlines, breakers) must never move a
// channel-layer counter — the layer is structurally inert without its
// own knobs.
func TestChannelLayerZeroWhenUnarmed(t *testing.T) {
	w := channelWorld(t, 7, func(p *Params) {
		p.Faults.RequestLoss = 0.2
		p.Faults.ReplyLoss = 0.1
		p.Faults.MaxRetries = 3
		p.Faults.ChurnRate = 0.1
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
	})
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if ev := s.Events("channel"); ev != 0 {
		t.Errorf("Events(\"channel\") = %d with channel knobs off, want 0", ev)
	}
	if s.AnsweredInBudget != 0 {
		t.Errorf("AnsweredInBudget = %d with channel knobs off, want 0", s.AnsweredInBudget)
	}
	checkTermination(t, s)
}

// TestChannelGridSelfCheckGreen: SelfCheck must hold at every point of
// a burst×blackout×loss grid, planner on and off, for both query kinds.
// Degraded answers are never checked against ground truth as exact —
// the gate is that nothing on any rung produces a verified-wrong
// result — and the five outcome classes partition the counted queries
// everywhere.
func TestChannelGridSelfCheckGreen(t *testing.T) {
	kinds := []QueryKind{KNNQuery, WindowQuery}
	for _, kind := range kinds {
		for _, burst := range []bool{false, true} {
			for _, blackout := range []bool{false, true} {
				for _, loss := range []float64{0, 0.2} {
					for _, planner := range []bool{false, true} {
						if !burst && !blackout && !planner {
							continue // the legacy quadrant, covered elsewhere
						}
						w := channelWorld(t, 11, func(p *Params) {
							p.Kind = kind
							p.DurationHours = 0.06
							if burst {
								bp := burstProfile()
								p.Faults.BurstBadLoss = bp.BurstBadLoss
								p.Faults.BurstBadSlots = bp.BurstBadSlots
								p.Faults.BurstGoodSlots = bp.BurstGoodSlots
							}
							if blackout {
								bp := blackoutProfile()
								p.Faults.BlackoutPeriodSec = bp.BlackoutPeriodSec
								p.Faults.BlackoutDurationSec = bp.BlackoutDurationSec
							}
							p.Faults.RequestLoss = loss
							p.Faults.ReplyLoss = loss
							if loss > 0 {
								p.Faults.MaxRetries = 3
							}
							p.DeadlineSlots = 16
							p.DegradedMode = planner
						})
						s := w.Run()
						if err := w.SelfCheckErr(); err != nil {
							t.Fatalf("kind=%v burst=%v blackout=%v loss=%v planner=%v: self-check: %v",
								kind, burst, blackout, loss, planner, err)
						}
						checkTermination(t, s)
						if blackout && !planner && s.BlackoutQueries == 0 {
							t.Errorf("kind=%v loss=%v: naive blackout run never stalled a query", kind, loss)
						}
						if (burst || blackout) && s.AnsweredInBudget == 0 {
							t.Errorf("kind=%v burst=%v blackout=%v loss=%v planner=%v: no query ever answered in budget",
								kind, burst, blackout, loss, planner)
						}
					}
				}
			}
		}
	}
}

// TestFadeNeverConvictsPeers: with only the fading chain armed (every
// peer honest, zero Bernoulli loss) and breakers on, the reply
// timeouts a deep fade causes must be suppressed rather than charged as
// strikes — a fade removes frames from the air; it says nothing about
// any individual peer.
func TestFadeNeverConvictsPeers(t *testing.T) {
	w := channelWorld(t, 13, func(p *Params) {
		p.Faults = burstProfile()
		p.Faults.MaxRetries = 2
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
	})
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.BurstFrameLosses == 0 {
		t.Fatal("deep-fade chain never killed a frame — test exercises nothing")
	}
	if s.FadeSuppressedStrikes == 0 {
		t.Error("fades caused timeouts but no strike was ever suppressed")
	}
	if s.BreakerTrips != 0 {
		t.Errorf("BreakerTrips = %d with honest peers and fade-only losses, want 0", s.BreakerTrips)
	}
	checkTermination(t, s)
}

// TestBlackoutNeverQuarantinesHonestPeers: blackout windows with the
// trust layer armed and every peer honest must produce zero audit
// failures and zero quarantines — a dark downlink makes audits
// impossible (budget 0), it must not make peers look guilty. The missed
// invalidation reports defer and replay at reacquisition.
func TestBlackoutNeverQuarantinesHonestPeers(t *testing.T) {
	w := channelWorld(t, 17, func(p *Params) {
		p.Faults = blackoutProfile()
		p.DeadlineSlots = 16
		p.AuditRate = 0.3
		p.UpdateRate = 2
		p.DegradedMode = true
	})
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.AuditFailures != 0 {
		t.Errorf("AuditFailures = %d with honest peers, want 0", s.AuditFailures)
	}
	if s.PeersQuarantined != 0 {
		t.Errorf("PeersQuarantined = %d with honest peers under blackout, want 0", s.PeersQuarantined)
	}
	if s.IRDeferred == 0 {
		t.Error("blackout windows never deferred an IR listen")
	}
	if s.BlackoutRecoveries == 0 {
		t.Error("hosts entered blackout windows but never recovered")
	}
	checkTermination(t, s)
}

// TestLadderBeatsNaiveAvailability: under the same blackout schedule
// and seed, the fallback ladder must answer a strictly larger fraction
// of queries within the deadline budget than the naive baseline that
// stalls out each window — the availability curve EXPERIMENTS.md plots.
func TestLadderBeatsNaiveAvailability(t *testing.T) {
	arm := func(planner bool) func(*Params) {
		return func(p *Params) {
			p.Faults = blackoutProfile()
			p.DeadlineSlots = 16
			p.DegradedMode = planner
		}
	}
	naive := channelWorld(t, 19, arm(false)).Run()
	ladder := channelWorld(t, 19, arm(true)).Run()
	if naive.BlackoutQueries == 0 || naive.BlackoutWaitSlots == 0 {
		t.Fatal("naive run never stalled on a blackout — schedule exercises nothing")
	}
	if ladder.ModeP2POnly == 0 {
		t.Error("planner never placed a dark-downlink query on the P2P-only rung")
	}
	if ladder.BlackoutWaitSlots != 0 {
		t.Errorf("planner run stalled %d slots on blackouts, want 0", ladder.BlackoutWaitSlots)
	}
	if ladder.AnsweredInBudget <= naive.AnsweredInBudget {
		t.Errorf("ladder answered %d/%d in budget, naive %d/%d — ladder must win",
			ladder.AnsweredInBudget, ladder.Queries, naive.AnsweredInBudget, naive.Queries)
	}
	checkTermination(t, naive)
	checkTermination(t, ladder)
}

// TestOwnCacheRungServesWithStaleBound: with the downlink permanently
// dark and the ad-hoc channel in a permanent deep fade, the planner's
// last-resort rung must answer from the host's own cache — verified
// where the cached knowledge fully covers the query, degraded with an
// explicit staleness bound where it does not — and honestly report
// unanswered when the cache has nothing relevant.
func TestOwnCacheRungServesWithStaleBound(t *testing.T) {
	w := channelWorld(t, 23, func(p *Params) {
		p.Faults = faults.Profile{
			BurstBadLoss:        1,
			BurstBadSlots:       1 << 30, // the fade never lifts
			BurstGoodSlots:      1,
			BlackoutPeriodSec:   60,
			BlackoutDurationSec: 60, // the downlink never returns
		}
		p.DegradedMode = true
		p.DeadlineSlots = 16
		p.PrefillQueriesPerHost = 10
	})
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.ModeOwnCache == 0 {
		t.Fatal("total outage never reached the own-cache rung")
	}
	if s.Degraded == 0 {
		t.Error("own-cache rung never produced a degraded answer despite prefilled caches")
	}
	if s.Degraded > 0 && s.StaleBoundMaxSec == 0 {
		t.Error("degraded own-cache answers carried no staleness bound")
	}
	// Own-cache knowledge that fully covers a query still verifies it —
	// that is sound offline — but nothing may claim the broadcast channel.
	if s.Broadcast != 0 {
		t.Errorf("total outage still resolved %d queries on the broadcast channel", s.Broadcast)
	}
	checkTermination(t, s)
}

// TestChannelDeterminism: the channel layer must be bit-deterministic
// under a fixed seed — same knobs, same seed, same Stats.
func TestChannelDeterminism(t *testing.T) {
	arm := func(p *Params) {
		bp := burstProfile()
		p.Faults = bp
		p.Faults.BlackoutPeriodSec = 60
		p.Faults.BlackoutDurationSec = 20
		p.Faults.RequestLoss = 0.1
		p.Faults.MaxRetries = 3
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
		p.DegradedMode = true
		p.DurationHours = 0.06
	}
	a := channelWorld(t, 29, arm).Run()
	b := channelWorld(t, 29, arm).Run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical channel runs diverged:\n%+v\n%+v", a, b)
	}
}
