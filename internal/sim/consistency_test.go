package sim

// System-level tests of the consistency layer (DESIGN.md §12): SelfCheck
// stays green at every churn × IR-period × loss grid point (staleness
// costs coverage, never correctness), honest peers are never convicted
// for serving outdated caches, and surgical reconciliation preserves more
// exactness than whole-region discard at the same churn. The knn_zero and
// window_zero goldens pin the zero-knob configuration.

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// consParams builds a small dense world with the POI-update process
// armed. Own caches and prefill give the version layer cached state to
// invalidate from t=0.
func consParams(seed int64, kind QueryKind, updateRate, irPeriod float64, loss float64) Params {
	p := LACity().Scaled(1.5).WithDuration(0.1)
	p.Seed = seed
	p.TimeStepSec = 10
	p.Kind = kind
	p.PrefillQueriesPerHost = 10
	p.UseOwnCache = true
	p.UpdateRate = updateRate
	p.IRPeriodSec = irPeriod
	p.Faults.BroadcastLoss = loss
	return p
}

// TestConsistencySelfCheckGrid is the acceptance grid: at every
// UpdateRate × IRPeriod × broadcast-loss point, every exact answer must
// match the (mutating) R-tree ground truth. Churn may cost coverage,
// never correctness.
func TestConsistencySelfCheckGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation in -short mode")
	}
	seed := int64(1700)
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		for _, rate := range []float64{2, 10} {
			for _, period := range []float64{15, 45} {
				for _, loss := range []float64{0, 0.2} {
					seed++
					name := kind.String() + "/u" + strconv.FormatFloat(rate, 'f', -1, 64) +
						"/p" + strconv.FormatFloat(period, 'f', -1, 64) +
						"/l" + strconv.FormatFloat(loss, 'f', -1, 64)
					t.Run(name, func(t *testing.T) {
						p := consParams(seed, kind, rate, period, loss)
						w, s := runSoakWorld(t, p)
						if err := w.SelfCheckErr(); err != nil {
							t.Fatalf("self-check under churn: %v", err)
						}
						if s.POIUpdates == 0 || s.IRBroadcasts == 0 {
							t.Fatalf("update process idle: %+v", s)
						}
						if s.IRListens == 0 {
							t.Fatal("no host ever listened for an IR frame")
						}
						if loss == 0 && s.IRListenRetries != 0 {
							t.Fatalf("IR replica waits %d on a lossless channel", s.IRListenRetries)
						}
						if loss > 0 && s.IRListenRetries == 0 {
							t.Error("lossy channel never forced an IR replica wait")
						}
					})
				}
			}
		}
	}
}

// TestConsistencyArmedReportSchema checks armed rows announce themselves:
// the same bench_schema as a zero-knob row, the knob fields present with
// the defaults actually simulated, and the consistency counters in the
// stats block.
func TestConsistencyArmedReportSchema(t *testing.T) {
	p := consParams(1801, KNNQuery, 6, 0, 0) // period 0: defaults must fill
	_, s := runSoakWorld(t, p)
	rep := NewReport(p, s, true, 0)
	if rep.BenchSchema != BenchSchemaVersion {
		t.Fatalf("armed schema %d, want %d", rep.BenchSchema, BenchSchemaVersion)
	}
	if rep.IRPeriodSec != 30 || rep.IRWindow != 8 {
		t.Fatalf("armed row missing defaults: period=%v window=%d", rep.IRPeriodSec, rep.IRWindow)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"update_rate":6`, `"ir_period_sec":30`, `"ir_window":8`,
		`"consistency_events":`, `"POIUpdates":`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("armed report missing %s:\n%s", key, raw)
		}
	}
}

// TestConsistencyNoFalseConvictions is the trust-interaction acceptance
// invariant: under pure churn (no byzantine hosts) with the audit
// defense armed, version skew must never convict an honest peer — no
// audit failures, no conflicts, no quarantines. Skew shows up only as
// amnestied stale verdicts.
func TestConsistencyNoFalseConvictions(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		p := consParams(1900, kind, 8, 20, 0)
		p.AuditRate = 0.6
		w, s := runSoakWorld(t, p)
		if err := w.SelfCheckErr(); err != nil {
			t.Fatalf("%v: self-check: %v", kind, err)
		}
		if s.POIUpdates == 0 {
			t.Fatalf("%v: no churn generated", kind)
		}
		if s.AuditsRun == 0 {
			t.Fatalf("%v: defense never audited", kind)
		}
		if s.AuditFailures != 0 || s.ConflictsDetected != 0 || s.PeersQuarantined != 0 {
			t.Fatalf("%v: churn convicted honest peers: failures=%d conflicts=%d quarantined=%d",
				kind, s.AuditFailures, s.ConflictsDetected, s.PeersQuarantined)
		}
	}
}

// TestConsistencyDegradesNotCorrupts compares a static world against the
// same world under churn: staleness may only reduce the verified share,
// and the churn run must actually exercise reconciliation and demotion.
func TestConsistencyDegradesNotCorrupts(t *testing.T) {
	static := consParams(2000, KNNQuery, 0, 0, 0)
	static.UpdateRate = 0
	_, ss := runSoakWorld(t, static)

	churn := consParams(2000, KNNQuery, 6, 20, 0)
	w, sc := runSoakWorld(t, churn)
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("churn self-check: %v", err)
	}
	if sc.VRsReconciled == 0 {
		t.Fatal("churn run never reconciled a region")
	}
	if sc.VRsDemoted == 0 {
		t.Fatal("churn run never demoted a beyond-horizon region")
	}
	if sc.VerifiedPct() > ss.VerifiedPct() {
		t.Fatalf("churn increased verified share: %.2f%% > %.2f%%",
			sc.VerifiedPct(), ss.VerifiedPct())
	}
}

// TestSurgicalBeatsWholeDiscard is the tentpole's payoff invariant: at
// identical churn, surgically shrinking superseded regions preserves at
// least as much exactness as throwing them away whole (EXPERIMENTS.md
// quantifies the gap).
func TestSurgicalBeatsWholeDiscard(t *testing.T) {
	surgical := consParams(2100, KNNQuery, 4, 20, 0)
	wa, sa := runSoakWorld(t, surgical)
	if err := wa.SelfCheckErr(); err != nil {
		t.Fatalf("surgical self-check: %v", err)
	}

	discard := consParams(2100, KNNQuery, 4, 20, 0)
	discard.IRDiscard = true
	wb, sb := runSoakWorld(t, discard)
	if err := wb.SelfCheckErr(); err != nil {
		t.Fatalf("discard self-check: %v", err)
	}

	if sa.VRsReconciled == 0 {
		t.Fatal("surgical run never repaired a region")
	}
	if sb.VRsReconciled != 0 {
		t.Fatalf("discard ablation repaired %d regions", sb.VRsReconciled)
	}
	if sb.VRsDiscarded == 0 {
		t.Fatal("discard ablation never discarded a region")
	}
	if sa.VerifiedPct() < sb.VerifiedPct() {
		t.Fatalf("surgical reconciliation lost to whole-discard: %.2f%% < %.2f%%",
			sa.VerifiedPct(), sb.VerifiedPct())
	}
}

// TestVRTTLStandsAlone: the TTL knob works without the update process —
// regions expire, the layer's other counters stay at zero, and the run
// stays sound.
func TestVRTTLStandsAlone(t *testing.T) {
	p := LACity().Scaled(1.5).WithDuration(0.1)
	p.Seed = 2300
	p.TimeStepSec = 10
	p.UseOwnCache = true
	p.PrefillQueriesPerHost = 10
	p.VRTTLSec = 60
	if p.ConsistencyEnabled() {
		t.Fatal("TTL alone must not arm the update process")
	}
	w, s := runSoakWorld(t, p)
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
	if s.VRsExpired == 0 {
		t.Fatal("TTL never expired a region")
	}
	if s.POIUpdates != 0 || s.IRListens != 0 || s.VRsReconciled != 0 || s.VRsDemoted != 0 {
		t.Fatalf("update-process counters moved with TTL only: %+v", s)
	}
}

// TestConsistencyDeterminism: identical seeds give identical stats with
// the full layer armed (mutations, IR loss draws, reconciliation, TTL).
func TestConsistencyDeterminism(t *testing.T) {
	p := consParams(2400, WindowQuery, 6, 15, 0.15)
	p.VRTTLSec = 90
	_, a := runSoakWorld(t, p)
	_, b := runSoakWorld(t, p)
	if a != b {
		t.Fatalf("armed consistency run not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
