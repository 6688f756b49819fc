package experiments

import (
	"reflect"
	"testing"
)

// TestFaultGridParallelIdentity checks the in-process bench grid obeys
// the sweep determinism contract: every worker count yields the same
// rows apart from the wall-clock field, across the whole fault ×
// resilience matrix.
func TestFaultGridParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation in -short mode")
	}
	serial, err := RunFaultGrid(1, 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(FaultGrid()) {
		t.Fatalf("grid returned %d rows, want %d", len(serial), len(FaultGrid()))
	}
	for _, workers := range []int{2, 4} {
		par, err := RunFaultGrid(workers, 1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			a, b := serial[i], par[i]
			a.WallSeconds, b.WallSeconds = 0, 0 // the one nondeterministic field
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d: grid row %d differs from serial", workers, i)
			}
		}
	}
}

// TestFaultGridCellOrder pins the row order to the historical shell
// loop: plain cells first in ascending loss, then resilient cells, then
// the appended POI-churn pair (surgical, then whole-discard), then the
// channel-impairment triplet (burst naive, burst planned, blackout
// planned), then the flash-crowd pair (uncontrolled, governed). New
// cells must append — never reorder — so the legacy BENCH_faults.json
// row prefix stays byte-stable.
func TestFaultGridCellOrder(t *testing.T) {
	grid := FaultGrid()
	want := []FaultCell{
		{Loss: 0}, {Loss: 0.05}, {Loss: 0.1}, {Loss: 0.2},
		{Loss: 0, Resilient: true}, {Loss: 0.05, Resilient: true},
		{Loss: 0.1, Resilient: true}, {Loss: 0.2, Resilient: true},
		{Loss: 0.1, Resilient: true, UpdateRate: 2},
		{Loss: 0.1, Resilient: true, UpdateRate: 2, Discard: true},
		{Loss: 0.1, Resilient: true, Burst: true},
		{Loss: 0.1, Resilient: true, Burst: true, Degraded: true},
		{Resilient: true, Blackout: true, Degraded: true},
		{Loss: 0.1, Resilient: true, Crowd: true},
		{Loss: 0.1, Resilient: true, Crowd: true, Governed: true},
	}
	if !reflect.DeepEqual(grid, want) {
		t.Fatalf("FaultGrid order changed: %+v", grid)
	}
}
