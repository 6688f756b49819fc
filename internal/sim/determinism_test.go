package sim

// Run-twice determinism: an armed world run twice from the same seed must
// agree byte for byte — report rows (wall clock zeroed), trace streams,
// metrics snapshots, Stats, the fault stream and breaker state — across the
// full armed-knob soak schedule. The helpers here arm every side-effect
// sink a run has, and the goldens (golden_test.go) and the continuous and
// metrics tests share them.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"lbsq/internal/trace"
)

// runArmedWorld runs p with every side-effect surface armed — trace
// capture, the metrics registry, baseline pricing, ground-truth
// self-checks — and returns the world, its stats, the marshaled report
// row (wall clock zeroed), and the raw trace stream.
func runArmedWorld(t *testing.T, p Params) (*World, Stats, []byte, []byte) {
	t.Helper()
	p.Metrics = true
	w, s, tr := runTracedWorld(t, p)
	rep := NewReport(p, s, true, 0)
	snap := w.Metrics().Snapshot()
	rep.Metrics = &snap
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return w, s, js, tr
}

// runTracedWorld is runArmedWorld without the report, leaving the Metrics
// knob as the caller set it.
func runTracedWorld(t *testing.T, p Params) (*World, Stats, []byte) {
	t.Helper()
	w, err := NewWorld(p)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	w.SelfCheck = true
	w.CompareBaseline = true // prices every counted query on the channel too
	var trBuf bytes.Buffer
	w.Trace = trace.NewWriter(&trBuf)
	s := w.Run()
	w.Trace.Flush()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
	return w, s, trBuf.Bytes()
}

// TestBatchedTickIdentity runs each chaos-soak schedule — faults, churn,
// resilience, byzantine attack with audits, POI updates with IR
// reconciliation, burst fading, blackouts, the degraded-mode planner,
// both query kinds — twice with every sink armed, and requires the two
// runs to agree on everything they expose. The "serialAir" subtest runs
// the schedule as drawn, air loss included, one query at a time.
func TestBatchedTickIdentity(t *testing.T) {
	schedules := 8
	if testing.Short() {
		schedules = 3
	}
	for schedule := 0; schedule < schedules; schedule++ {
		p := soakParams(schedule)
		t.Run("schedule"+strconv.Itoa(schedule), func(t *testing.T) {
			t.Run("serialAir", func(t *testing.T) { checkRunTwice(t, p) })
		})
	}
}

// checkRunTwice runs p twice with every sink armed and requires the two
// runs to agree on reports, traces, Stats, the fault stream and breakers.
func checkRunTwice(t *testing.T, p Params) {
	t.Helper()
	a, sa, repA, trA := runArmedWorld(t, p)
	b, sb, repB, trB := runArmedWorld(t, p)
	if !bytes.Equal(repA, repB) {
		t.Errorf("report diverged between runs:\n%s\nvs\n%s", repA, repB)
	}
	if !bytes.Equal(trA, trB) {
		t.Errorf("trace diverged between runs (%d vs %d bytes)", len(trA), len(trB))
	}
	// Direct Stats comparison catches the unexported fields the report
	// row does not carry.
	if sa != sb {
		t.Errorf("stats diverged between runs:\n%+v\nvs\n%+v", sa, sb)
	}
	if !sameFaultStream(a, b) {
		t.Error("fault streams diverged")
	}
	if (a.breakers == nil) != (b.breakers == nil) {
		t.Error("breaker allocation diverged")
	} else if a.breakers != nil {
		if !sameBreakerStates(a, b) || a.breakers.Cycle() != b.breakers.Cycle() {
			t.Error("breaker state diverged")
		}
	}
}

// sameFaultStream reports whether two worlds' injectors made the same
// number of draws, by drawing once more from each.
func sameFaultStream(a, b *World) bool {
	return a.inj.Jitter(math.MaxInt64) == b.inj.Jitter(math.MaxInt64)
}

// sameBreakerStates reports whether every host's breaker is in the same
// state in both worlds, walked in host order.
func sameBreakerStates(a, b *World) bool {
	if len(a.mob) != len(b.mob) {
		return false
	}
	for h := range a.mob {
		if a.breakers.State(h) != b.breakers.State(h) {
			return false
		}
	}
	return true
}
