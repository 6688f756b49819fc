//go:build !race

package sim

import (
	"runtime"
	"testing"

	"lbsq/internal/faults"
)

// TestArmedQueryAllocs bounds what a query of a small world with every
// shell layer armed (the knn_armed benchmark workload's knobs: loss,
// corruption, churn, deadline, breakers, IR reconcile, standing queries,
// audits), and of the same world with byzantine hosts, allocates past
// warm-up: one exact-size array per region it caches, and the epoch
// rebuilds' tables. The damaged-reply frame, byzantine claims, the
// per-host ledgers, the IR report's index and the schedule's packets are
// scratch or arrays, answers and Known live in the core scratch, and a
// repair reuses its region's array; the body that allocated them read
// 10.2 and 14.6 allocations per query here, the one that copied answers
// and repairs 5.0 and 5.1, and this tree reads 2.8 and 2.9.
func TestArmedQueryAllocs(t *testing.T) {
	for _, byzantine := range []float64{0, 0.05} {
		p := LACity().Scaled(2).WithDuration(0.1)
		p.Seed = 42
		p.AcceptApproximate = true
		p.PrefillQueriesPerHost = 3
		p.Faults = faults.Profile{RequestLoss: 0.1, ReplyLoss: 0.1, ReplyCorrupt: 0.05, MaxRetries: 4,
			ChurnRate: 0.1, ByzantineRate: byzantine}
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
		p.BreakerCooldown = 8
		p.DegradedMode = true
		p.UpdateRate = 1
		p.UseOwnCache = true
		p.ContinuousRate = 0.5
		p.AuditRate = 0.1
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		dt, end := w.Params.TimeStepSec, w.Params.DurationHours*3600
		for w.Now()+dt < end*w.Params.WarmupFrac {
			w.Step(dt)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for w.Now() < end {
			w.Step(dt)
		}
		runtime.ReadMemStats(&m1)
		s := w.Stats()
		if s.Queries < 200 || s.RepliesRejected == 0 || s.VRsReconciled == 0 {
			t.Fatalf("byzantine rate %v: the world exercised too little: %d queries, %d rejected replies, %d repairs",
				byzantine, s.Queries, s.RepliesRejected, s.VRsReconciled)
		}
		per := float64(m1.Mallocs-m0.Mallocs) / float64(s.Queries)
		t.Logf("byzantine rate %v: %.2f allocations per query over %d queries", byzantine, per, s.Queries)
		if per > 3.5 {
			t.Errorf("byzantine rate %v: %.2f allocations per query, want at most 3.5", byzantine, per)
		}
	}
}
