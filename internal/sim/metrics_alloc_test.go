//go:build !race

package sim

import "testing"

// The observability layer's two recurring costs — the per-tick counter
// sync and the per-query distribution observation — never touch the
// allocator, with every layer's instruments registered.
func TestMetricsSyncAndObserveAllocFree(t *testing.T) {
	p := goldenWorlds()["armed_knn"]
	p.Metrics = true
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.Step(p.TimeStepSec)
	if allocs := testing.AllocsPerRun(100, func() { w.mx.sync(w) }); allocs != 0 {
		t.Errorf("sync allocated %v times per tick", allocs)
	}
	var e query
	e.trep.Audits, e.trep.AuditSlots = 1, 7
	e.res.knownRegion = w.area
	if allocs := testing.AllocsPerRun(100, func() { w.mx.observeQuery(&e, 42) }); allocs != 0 {
		t.Errorf("observeQuery allocated %v times per query", allocs)
	}
}
