package sim

// System-level tests of the Byzantine-resilience layer (DESIGN.md §11):
// the no-trust baseline demonstrably fails open under lying peers, the
// armed defense keeps every exact answer ground-truth correct across the
// full attack-profile grid. That with both knobs zero the layer is
// invisible (no engine, no draws, no report keys, no trust instruments) is
// the lossy_knn golden's to pin: loss on, trust off, byte-exact.

import (
	"strconv"
	"testing"

	"lbsq/internal/faults"
)

// byzParams builds a small dense world with lying peers. Prefill gives
// every host a cache worth lying about from t=0.
func byzParams(seed int64, kind QueryKind, byzRate, auditRate float64, attack faults.Attack) Params {
	p := LACity().Scaled(1.5).WithDuration(0.1)
	p.Seed = seed
	p.TimeStepSec = 10
	p.Kind = kind
	p.PrefillQueriesPerHost = 10
	p.Faults.ByzantineRate = byzRate
	p.Faults.Attack = attack
	p.AuditRate = auditRate
	return p
}

// TestByzantineNoTrustFailsOpen pins the threat model at system level:
// with lying peers and the defense disarmed, the honest-peer assumption
// of Section 3.2 fails open and the self-check catches verified-wrong
// (or merged-wrong) exact answers. If this test ever stops failing open,
// the trust layer is defending against a threat the simulator no longer
// produces.
func TestByzantineNoTrustFailsOpen(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		p := byzParams(901, kind, 0.5, 0, faults.AttackMix)
		w, s := runSoakWorld(t, p)
		if s.ByzantineLies == 0 {
			t.Fatalf("%v: no byzantine lies told (rate 0.5)", kind)
		}
		if s.Events("trust") != 0 {
			t.Fatalf("%v: trust events %d with the defense disarmed", kind, s.Events("trust"))
		}
		if w.tr != nil {
			t.Fatalf("%v: trust engine exists with AuditRate 0", kind)
		}
		if err := w.SelfCheckErr(); err == nil {
			t.Fatalf("%v: unscreened byzantine run passed the self-check — the documented vulnerability is gone", kind)
		}
	}
}

// TestByzantineSoundnessGrid is the acceptance grid: every attack
// profile, byzantine rates up to 0.5, audits armed — every exact answer
// must match the R-tree ground truth. Lies may cost coverage (verified
// share drops, channel share rises), never correctness.
func TestByzantineSoundnessGrid(t *testing.T) {
	attacks := []faults.Attack{faults.AttackFabricate, faults.AttackOmit,
		faults.AttackInflate, faults.AttackShift, faults.AttackMix}
	var auditsTotal, liesTotal int64
	for ai, attack := range attacks {
		for bi, byzRate := range []float64{0.25, 0.5} {
			kind := KNNQuery
			if (ai+bi)%2 == 1 {
				kind = WindowQuery
			}
			name := attack.String() + "-" + strconv.FormatFloat(byzRate, 'g', -1, 64)
			t.Run(name, func(t *testing.T) {
				p := byzParams(1000+int64(ai*10+bi), kind, byzRate, 0.5, attack)
				w, s := runSoakWorld(t, p)
				if err := w.SelfCheckErr(); err != nil {
					t.Fatalf("attack %v byz %v: exact answer diverged from ground truth: %v",
						attack, byzRate, err)
				}
				if got := s.Verified + s.Approximate + s.Broadcast; got != s.Queries {
					t.Fatalf("outcomes %d != queries %d", got, s.Queries)
				}
				if s.AuditFailures > s.AuditsRun {
					t.Fatalf("audit failures %d exceed audits %d", s.AuditFailures, s.AuditsRun)
				}
				if s.AuditFailures > 0 && s.PeersQuarantined == 0 {
					t.Fatalf("audit failures %d convicted nobody", s.AuditFailures)
				}
				auditsTotal += s.AuditsRun
				liesTotal += s.ByzantineLies
			})
		}
	}
	if auditsTotal == 0 {
		t.Error("grid never ran a single audit")
	}
	if liesTotal == 0 {
		t.Error("grid never told a single lie")
	}
}

// TestTrustHonestSubstrate: audits armed over honest peers must vouch,
// never convict — no false positives from the defense itself (with no
// POI updates every honest claim is ground-truth exact).
func TestTrustHonestSubstrate(t *testing.T) {
	p := byzParams(77, KNNQuery, 0, 0.5, faults.AttackNone)
	w, s := runSoakWorld(t, p)
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.AuditsRun == 0 {
		t.Fatal("honest run never audited anything")
	}
	if s.AuditFailures != 0 || s.ConflictsDetected != 0 || s.PeersQuarantined != 0 {
		t.Fatalf("defense convicted honest peers: failures=%d conflicts=%d quarantined=%d",
			s.AuditFailures, s.ConflictsDetected, s.PeersQuarantined)
	}
	if s.ByzantineLies != 0 {
		t.Fatalf("lies counted with byzantine off: %d", s.ByzantineLies)
	}
}

// TestTrustDeterminism: identical seeds with the full stack armed
// (faults + resilience + byzantine + audits) produce identical Stats,
// trust counters included.
func TestTrustDeterminism(t *testing.T) {
	p := byzParams(555, WindowQuery, 0.4, 0.6, faults.AttackMix)
	p.Faults.RequestLoss = 0.1
	p.Faults.ChurnRate = 0.1
	p.DeadlineSlots = 16
	p.BreakerThreshold = 3
	_, s := runSoakWorld(t, p)
	_, s2 := runSoakWorld(t, p)
	if s != s2 {
		t.Fatalf("armed run not deterministic:\n%+v\nvs\n%+v", s, s2)
	}
	if s.Events("trust") == 0 {
		t.Fatal("armed run produced no trust activity")
	}
}
