package sim

// Overload-plane acceptance tests (DESIGN.md §16; the knn_zero and
// window_zero goldens pin the zero-knob contract): the governor,
// admission, retry and coalescing mechanics in isolation, the
// BUSY-is-not-a-strike breaker contract, the lbsq_overload_* metrics, and the flash-crowd survival scenario the
// PR exists for (governed runs stay live and recover; shedding stays
// sound under ground-truth self-checks).

import (
	"math"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// makePeers builds n screened peer contributions over vr, each with a
// couple of POIs, for donor-table tests.
func makePeers(n int, vr geom.Rect) []core.PeerData {
	peers := make([]core.PeerData, n)
	for i := range peers {
		peers[i] = core.PeerData{
			VR: vr,
			POIs: []broadcast.POI{
				{ID: int64(10*i + 1), Pos: vr.Min},
				{ID: int64(10*i + 2), Pos: vr.Max},
			},
		}
	}
	return peers
}

// crowdParams is the shared flash-crowd scenario: a dense small world
// on a lossy substrate with a 40× hotspot burst (radius 0.2mi) through
// the middle third of the run — placed after the 30% warm-up so every
// crowd query is counted, with a ~18-tick quiet tail to observe
// recovery in.
func crowdParams() Params {
	p := LACity().Scaled(1.5).WithDuration(0.15)
	p.Seed = 777
	p.TimeStepSec = 10
	p.Kind = KNNQuery
	p.AcceptApproximate = true
	p.Faults.RequestLoss = 0.3
	p.Faults.ReplyLoss = 0.15
	p.Faults.BroadcastLoss = 0.3
	p.Faults.MaxRetries = 4
	p.DeadlineSlots = 16
	p.BreakerThreshold = 3
	p.BreakerCooldown = 8
	p.CrowdRate = p.QueryRate * 40
	p.CrowdRadiusMiles = 0.2
	p.CrowdStartSec = 180
	p.CrowdDurationSec = 180
	return p
}

// withOverloadControls arms the full demand-side stack on top of p,
// tuned so every lever visibly moves under crowdParams: cap-2 service
// queues saturate, burst-2 buckets drain on hotspot repeats, the tight
// retry budget exhausts, and the small coalescing radius shares gathers
// without absorbing the whole hotspot.
func withOverloadControls(p Params) Params {
	p.PeerQueueCap = 2
	p.RetryBudget = 8
	p.AdmissionRate = 0.1
	p.AdmissionBurst = 2
	p.GovernorFloor = 0.95
	p.CoalesceRadiusMiles = 0.08
	return p
}

// TestGovernorFloorArmsGovernor: the floor is the governor's one switch.
// A crowd world given a floor of 1 and no other control builds the
// governor, which engages at the first budget miss on a lossy downlink and
// sheds; the same world without the floor has none.
func TestGovernorFloorArmsGovernor(t *testing.T) {
	p := crowdParams()
	p.Faults.BroadcastLoss = 0.4
	p.GovernorFloor = 1
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if !w.govSteering() {
		t.Fatal("a floor alone built no governor")
	}
	if s := w.Run(); s.GovernorEngagedTicks == 0 || s.GovernorSheds == 0 {
		t.Errorf("governor never acted: engaged ticks %d, sheds %d", s.GovernorEngagedTicks, s.GovernorSheds)
	}
	p.GovernorFloor = 0
	if w, err := NewWorld(p); err != nil || w.govSteering() {
		t.Errorf("a zero floor built a governor (err %v)", err)
	}
}

// TestGovernorEngageDisengage drives the governor state machine
// directly: sustained under-floor ratios engage it, recovery past the
// hysteresis band disengages it, and vanished load disengages it even
// without recovery.
func TestGovernorEngageDisengage(t *testing.T) {
	p := LACity()
	p.GovernorFloor = 0.9
	w := &World{ovl: newOverloadState(p)}
	o := w.ovl
	if o == nil || o.floor != 0.9 {
		t.Fatal("governed state not built")
	}

	// Healthy ticks: 10 queries, all in budget — stays disengaged.
	for tick := 0; tick < 5; tick++ {
		for q := 0; q < 10; q++ {
			o.noteBudget(true)
		}
		w.tickReset(10)
		if o.engaged {
			t.Fatalf("governor engaged on healthy tick %d", tick)
		}
	}
	// Collapse: half the queries miss budget — must engage.
	engagedAt := -1
	for tick := 0; tick < 10; tick++ {
		for q := 0; q < 10; q++ {
			o.noteBudget(q%2 == 0)
		}
		w.tickReset(10)
		if o.engaged {
			engagedAt = tick
			break
		}
	}
	if engagedAt < 0 {
		t.Fatal("governor never engaged at a 50% in-budget ratio")
	}
	if w.stats.GovernorEngagedTicks == 0 {
		t.Error("engaged ticks not counted")
	}
	// Recovery: all in budget again — must disengage within a bounded
	// tail (the EWMA forgets the collapse geometrically).
	recovered := false
	for tick := 0; tick < 20; tick++ {
		for q := 0; q < 10; q++ {
			o.noteBudget(true)
		}
		w.tickReset(10)
		if !o.engaged {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("governor never disengaged after full recovery")
	}

	// Floor 1.0: the disengage threshold caps at 1, so perfection can
	// still disengage.
	p.GovernorFloor = 1
	w2 := &World{ovl: newOverloadState(p)}
	o2 := w2.ovl
	for tick := 0; tick < 5; tick++ {
		o2.noteBudget(false)
		w2.tickReset(10)
	}
	if !o2.engaged {
		t.Fatal("floor-1.0 governor never engaged")
	}
	for tick := 0; tick < 30 && o2.engaged; tick++ {
		for q := 0; q < 10; q++ {
			o2.noteBudget(true)
		}
		w2.tickReset(10)
	}
	if o2.engaged {
		t.Error("floor-1.0 governor latched up despite perfect recovery")
	}

	// Vanished load: engaged, then zero queries — the EWMA decays below
	// the half-query floor and disengages (nothing left to govern).
	p.GovernorFloor = 0.9
	w3 := &World{ovl: newOverloadState(p)}
	o3 := w3.ovl
	for tick := 0; tick < 5; tick++ {
		for q := 0; q < 10; q++ {
			o3.noteBudget(false)
		}
		w3.tickReset(10)
	}
	if !o3.engaged {
		t.Fatal("governor never engaged before the load vanished")
	}
	for tick := 0; tick < 30 && o3.engaged; tick++ {
		w3.tickReset(10)
	}
	if o3.engaged {
		t.Error("governor latched up on vanished load")
	}
}

// TestGovernorModelCheck walks every sequence of up to 8 ticks over the
// alphabet (q, a) — a tick's counted one-shot queries q ≤ 2 and how many
// of them answered in budget — at floors 0.5, 0.9 and 1, against the
// governor's specification, recomputing its decayed load Q and answered
// mass A on the side:
//   - an idle governor engages only when, on at least one query of
//     evidence (Q ≥ 1), the ratio A/Q is below the floor;
//   - an engaged one disengages as soon as, on that evidence, the ratio
//     reaches floor + hysteresis (capped at 1) or the miss mass Q − A falls
//     below half a query, or as soon as the load vanishes (Q < 0.5), and
//     otherwise stays engaged — it is never latched while one of those
//     holds;
//   - from every state reached, ticks without a miss (q = a for q = 0, 1
//     or 2) release it within 8 ticks.
//
// Sequences share their prefixes: the state is restored on the way back up.
func TestGovernorModelCheck(t *testing.T) {
	const depth, maxQ, releaseTicks = 8, 2, 8
	for _, floor := range []float64{0.5, 0.9, 1} {
		p := LACity()
		p.GovernorFloor = floor
		o := newOverloadState(p)
		off := math.Min(1, floor+govHysteresis)
		var path [][2]int64
		var walk func()
		walk = func() {
			if len(path) == depth {
				return
			}
			engaged, q0, a0 := o.engaged, o.ewmaQ, o.ewmaA
			for q := int64(0); q <= maxQ; q++ {
				for a := int64(0); a <= q; a++ {
					o.engaged, o.ewmaQ, o.ewmaA = engaged, q0, a0
					o.tickQ, o.tickA = q, a
					o.governTick()
					path = append(path, [2]int64{q, a})
					Q, A := q0*govDecay+float64(q), a0*govDecay+float64(a)
					evidence := Q >= 1
					want := engaged
					if engaged && ((evidence && (A/Q >= off || Q-A < 0.5)) || Q < 0.5) {
						want = false
					} else if !engaged && evidence && A/Q < floor {
						want = true
					}
					if o.engaged != want || o.ewmaQ != Q || o.ewmaA != A || o.tickQ != 0 || o.tickA != 0 {
						t.Fatalf("floor %v ticks %v: engaged %v Q %v A %v, model %v %v %v",
							floor, path, o.engaged, o.ewmaQ, o.ewmaA, want, Q, A)
					}
					for clean := int64(0); o.engaged && clean <= maxQ; clean++ {
						for i := 0; o.engaged; i++ {
							if i == releaseTicks {
								t.Fatalf("floor %v ticks %v: still engaged after %d ticks of (%d, %d)",
									floor, path, releaseTicks, clean, clean)
							}
							o.tickQ, o.tickA = clean, clean
							o.governTick()
						}
						o.engaged, o.ewmaQ, o.ewmaA = true, Q, A
					}
					walk()
					path = path[:len(path)-1]
				}
			}
		}
		walk()
	}
}

// TestAdmissionBucket pins the token-bucket mechanics: bursts drain a
// full bucket, empty buckets deny with the admission cause, the refill
// is deterministic and capped, and standing (continuous) traffic is
// always admitted without consuming tokens.
func TestAdmissionBucket(t *testing.T) {
	p := LACity()
	p.MHNumber = 2
	p.AdmissionRate = 0.1 // 1 token per 10-second tick
	p.AdmissionBurst = 2
	w := &World{ovl: newOverloadState(p)}
	o := w.ovl

	for i := 0; i < 2; i++ {
		if ok, cause := w.admitOneShot(0, false); !ok || cause != shedNone {
			t.Fatalf("admit %d: denied with a full bucket (cause %v)", i, cause)
		}
	}
	if ok, cause := w.admitOneShot(0, false); ok || cause != shedAdmission {
		t.Fatalf("empty bucket admitted (ok=%v cause=%v)", ok, cause)
	}
	if w.stats.AdmissionDenied != 1 || w.stats.Shed != 1 {
		t.Fatalf("denial not counted: %+v", w.stats)
	}
	// Host 1's bucket is untouched by host 0's burst.
	if ok, _ := w.admitOneShot(1, false); !ok {
		t.Fatal("independent bucket drained by another host")
	}
	// One tick refills one token; the cap holds at the burst depth.
	w.tickReset(10)
	if ok, _ := w.admitOneShot(0, false); !ok {
		t.Fatal("refilled bucket still denies")
	}
	for i := 0; i < 10; i++ {
		w.tickReset(10)
	}
	if got := o.tokens[0]; got != o.admBurst {
		t.Fatalf("bucket overfilled past burst: %v > %v", got, o.admBurst)
	}
	// Standing traffic: admitted from an empty bucket, consumes nothing.
	o.tokens[0] = 0
	if ok, cause := w.admitOneShot(0, true); !ok || cause != shedNone {
		t.Fatalf("standing traffic denied (cause %v)", cause)
	}
	if o.tokens[0] != 0 {
		t.Error("standing admission consumed a token")
	}
}

// TestRetryBudget pins the global per-tick retry pool: takeRetry drains
// it, exhaustion refuses, tickReset replenishes, standing traffic
// bypasses, and a nil/unbudgeted plane always grants.
func TestRetryBudget(t *testing.T) {
	var nilW World
	if !nilW.ovl.takeRetry(false) {
		t.Fatal("nil plane refused a retry")
	}
	p := LACity()
	p.RetryBudget = 2
	w := &World{ovl: newOverloadState(p)}
	o := w.ovl
	if !o.takeRetry(false) || !o.takeRetry(false) {
		t.Fatal("budgeted retries refused")
	}
	if o.takeRetry(false) {
		t.Fatal("exhausted budget granted a retry")
	}
	w.tickReset(10)
	if !o.takeRetry(false) {
		t.Fatal("replenished budget refused")
	}
	o.retryTokens = 0
	if !o.takeRetry(true) {
		t.Fatal("standing traffic hit the retry budget")
	}
}

// TestCoalesceDonorTable pins the donor table mechanics: the radius and
// overlap gates; the per-tick bound; the tick reset; and —
// critically — that donated peer sets are deep copies no later mutation
// of the source slices can reach.
func TestCoalesceDonorTable(t *testing.T) {
	p := LACity()
	p.CoalesceRadiusMiles = 0.5
	w := &World{ovl: newOverloadState(p)}

	rel := geom.NewRect(1, 1, 3, 3)
	src := makePeers(2, rel)
	w.coalesceDonate(geom.Pt(2, 2), rel, src, 7)

	if d := w.coalesceLookup(geom.Pt(2.6, 2), rel); d != nil {
		t.Error("radius gate failed: origin 0.6mi away matched a 0.5mi radius")
	}
	if d := w.coalesceLookup(geom.Pt(2.2, 2), geom.NewRect(10, 10, 12, 12)); d != nil {
		t.Error("overlap gate failed: disjoint relevance matched")
	}
	d := w.coalesceLookup(geom.Pt(2.2, 2), geom.NewRect(2, 2, 4, 4))
	if d == nil {
		t.Fatal("co-located overlapping query missed the donor")
	}
	if d.nPeers != 7 || len(d.peers) != len(src) {
		t.Fatalf("donor snapshot wrong: nPeers=%d peers=%d", d.nPeers, len(d.peers))
	}
	// Mutate the source after donation: the snapshot must be unaffected.
	wantID := d.peers[0].POIs[0].ID
	src[0].POIs[0].ID = -999
	src[0].VR = geom.NewRect(0, 0, 0, 0)
	if got := d.peers[0].POIs[0].ID; got != wantID {
		t.Fatalf("donated POIs alias the source: got %d want %d", got, wantID)
	}
	if d.peers[0].VR != rel {
		t.Fatal("donated VR aliases the source")
	}

	// The table bounds at maxCoalesceDonors per tick and clears on reset.
	for i := 0; i < maxCoalesceDonors+5; i++ {
		w.coalesceDonate(geom.Pt(2, 2), rel, src, 1)
	}
	if w.ovl.nDonors != maxCoalesceDonors {
		t.Fatalf("donor table overflowed: %d", w.ovl.nDonors)
	}
	w.tickReset(10)
	if w.ovl.nDonors != 0 {
		t.Fatal("donor table survived the tick reset")
	}
	if d := w.coalesceLookup(geom.Pt(2, 2), rel); d != nil {
		t.Fatal("stale donor matched after reset")
	}
}

// TestBusyNotBreakerStrike is the no-false-trips regression (the
// fade-suppression analog for backpressure): on a loss-free substrate
// with tiny service queues and armed breakers, saturation must produce
// BUSY replies and queue drops without a single breaker strike — a busy
// peer is not a broken peer.
func TestBusyNotBreakerStrike(t *testing.T) {
	p := LACity().Scaled(1.5).WithDuration(0.05)
	p.Seed = 31
	p.TimeStepSec = 10
	p.Kind = KNNQuery
	p.AcceptApproximate = true
	p.QueryRate *= 4 // saturate the per-tick queues
	p.BreakerThreshold = 3
	p.BreakerCooldown = 8
	p.PeerQueueCap = 1
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.BusyReplies == 0 {
		t.Error("no BUSY reply despite cap-1 queues under 4x load")
	}
	if s.QueueDrops == 0 {
		t.Error("no queue drop despite cap-1 queues under 4x load")
	}
	if s.BreakerTrips != 0 {
		t.Errorf("backpressure tripped %d breakers on a loss-free substrate (busy=%d drops=%d)",
			s.BreakerTrips, s.BusyReplies, s.QueueDrops)
	}
}

// TestCrowdNoMetastability is the flash-crowd survival scenario: the
// same hotspot burst runs uncontrolled and fully governed. Both must
// stay sound (ground-truth self-checks green — shedding never
// fabricates an answer) and fully answered; the uncontrolled run must
// visibly collapse into a retry storm on the shared medium while the
// governed run bounds that amplification, keeps its answered-in-budget
// ratio above the governor floor, exercises every control lever, and —
// the no-metastability invariant — ends disengaged with at most a
// bounded engaged tail after the crowd passes instead of latching into
// permanent shedding.
func TestCrowdNoMetastability(t *testing.T) {
	if testing.Short() {
		t.Skip("crowd scenario in -short mode")
	}
	run := func(p Params) (*World, Stats) {
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		w.SelfCheck = true
		s := w.Run()
		if err := w.SelfCheckErr(); err != nil {
			t.Fatalf("self-check: %v", err)
		}
		return w, s
	}
	// The uncontrolled run arms the governor as an inert observer (an
	// epsilon floor never engages — a zero floor is no governor) so
	// AnsweredInBudget is measured on both sides; every actual control
	// stays off.
	uncontrolled := crowdParams()
	uncontrolled.GovernorFloor = 1e-9
	governed := withOverloadControls(crowdParams())
	_, su := run(uncontrolled)
	wg, sg := run(governed)

	// The crowd is the same disturbance in both runs (dedicated stream,
	// movement untouched by the controls).
	if su.CrowdQueries == 0 || su.CrowdQueries != sg.CrowdQueries {
		t.Fatalf("crowd streams diverged: uncontrolled=%d governed=%d",
			su.CrowdQueries, sg.CrowdQueries)
	}
	if su.Shed != 0 {
		t.Errorf("inert observer shed %d queries", su.Shed)
	}
	// Every query still terminates in an answered outcome in both runs.
	for name, s := range map[string]Stats{"uncontrolled": su, "governed": sg} {
		if s.Verified+s.Approximate+s.Broadcast != s.Queries {
			t.Errorf("%s: outcomes do not partition queries: %+v", name, s)
		}
	}
	// The control levers actually moved.
	if sg.Shed == 0 {
		t.Error("governed run never shed a query")
	}
	if sg.BusyReplies == 0 {
		t.Error("governed run never pushed back with BUSY")
	}
	if sg.Coalesced == 0 {
		t.Error("governed run never coalesced a co-located gather")
	}
	if sg.RetryBudgetExhausted == 0 {
		t.Error("governed run never exhausted a retry budget")
	}
	// Collapse vs survival: on identical offered load the uncontrolled
	// run floods the shared medium — well past 2x the request traffic
	// and 5x the retry/backoff spend of the governed run (measured
	// margins are 8x/14x/15x; the asserts leave headroom).
	if su.PeerRequests < 2*sg.PeerRequests {
		t.Errorf("uncontrolled run did not amplify requests: %d vs governed %d",
			su.PeerRequests, sg.PeerRequests)
	}
	if su.PeerRetries < 5*sg.PeerRetries {
		t.Errorf("uncontrolled run did not storm retries: %d vs governed %d",
			su.PeerRetries, sg.PeerRetries)
	}
	if su.BackoffSlots < 5*sg.BackoffSlots {
		t.Errorf("uncontrolled run did not burn backoff slots: %d vs governed %d",
			su.BackoffSlots, sg.BackoffSlots)
	}
	// The governed run holds the answered-in-budget ratio above its own
	// governor floor right through the crowd.
	if 100*sg.AnsweredInBudget < int64(100*governed.GovernorFloor)*int64(sg.Queries) {
		t.Errorf("governed run fell below its floor: %d/%d in budget",
			sg.AnsweredInBudget, sg.Queries)
	}
	// No metastability: the governor is disengaged at the end of the run
	// and spent at most a bounded tail engaged after the crowd window
	// closed (the run has ~18 post-crowd ticks; a metastable system
	// stays engaged through all of them).
	if wg.ovl.engaged {
		t.Error("governor still engaged at end of run")
	}
	if rec := wg.ovl.postCrowdEngaged; rec > 10 {
		t.Errorf("governor stayed engaged %d ticks past the crowd window", rec)
	}
	t.Logf("uncontrolled: requests=%d retries=%d backoff=%d; governed: requests=%d retries=%d backoff=%d shed=%d busy=%d drops=%d coalesced=%d exhausted=%d govticks=%d recovery=%d",
		su.PeerRequests, su.PeerRetries, su.BackoffSlots,
		sg.PeerRequests, sg.PeerRetries, sg.BackoffSlots,
		sg.Shed, sg.BusyReplies, sg.QueueDrops, sg.Coalesced,
		sg.RetryBudgetExhausted, sg.GovernorEngagedTicks,
		wg.ovl.postCrowdEngaged)
}
