//go:build !race

package sim

import (
	"testing"

	"lbsq/internal/trace"
)

// The observability layer's one recurring cost — the per-query
// distribution observation — never touches the allocator, with every
// layer's instruments registered. Counters and gauges have no recurring
// cost: the registry reads Stats and the World only when it snapshots.
func TestMetricsSyncAndObserveAllocFree(t *testing.T) {
	p := goldenWorlds()["armed_knn"]
	p.Metrics = true
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.Step(p.TimeStepSec)
	var e query
	e.trep.Audits, e.trep.AuditSlots = 1, 7
	e.res.knownRegion = w.area
	var ev trace.Event
	if allocs := testing.AllocsPerRun(100, func() { w.mx.observeQuery(&e, 42, &ev) }); allocs != 0 {
		t.Errorf("observeQuery allocated %v times per query", allocs)
	}
}
