package perf

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParallelTickIdentity is the perf-side mirror of internal/sim's
// byte-identity matrix: the benchmark world's Stats must match between
// the serial path and the batched engine at the report's largest worker
// count. Named TestParallel* so the race-enabled bench-smoke selection
// runs it.
func TestParallelTickIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("world simulation in -short mode")
	}
	workers := TickWorkerCounts[len(TickWorkerCounts)-1]
	ok, err := TickIdentical(workers)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("batched engine (workers=%d) diverged from serial on the benchmark world", workers)
	}
}

// TestCompareTick exercises the tick regression gate: wall clock only
// compares under matching GOMAXPROCS, allocations never grow (by more
// than 1% on one core, 10% otherwise), and the embedded identity flag is
// enforced.
func TestCompareTick(t *testing.T) {
	base := Tick{
		Identical: true,
		Rows: []TickRow{
			{Name: "world_step_w1", Workers: 1, GoMaxProcs: 4, NsPerOp: 1000, AllocsPerOp: 10},
			{Name: "world_step_w4", Workers: 4, GoMaxProcs: 4, NsPerOp: 400, AllocsPerOp: 20},
		},
	}
	cur := Tick{
		Identical: true,
		Rows: []TickRow{
			{Name: "world_step_w1", Workers: 1, GoMaxProcs: 4, NsPerOp: 1100, AllocsPerOp: 10},
			{Name: "world_step_w4", Workers: 4, GoMaxProcs: 4, NsPerOp: 450, AllocsPerOp: 20},
		},
	}
	if fails := CompareTick(base, cur, 0.25); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}

	// A different GOMAXPROCS silences the wall-clock comparison (the
	// timings are not comparable) but not the allocation gate.
	cur.Rows[1].GoMaxProcs = 1
	cur.Rows[1].NsPerOp = 99999
	if fails := CompareTick(base, cur, 0.25); len(fails) != 0 {
		t.Fatalf("cross-GOMAXPROCS timing compared: %v", fails)
	}
	cur.Rows[1].AllocsPerOp = 23 // past the 10% cross-GOMAXPROCS allowance
	if fails := CompareTick(base, cur, 0.25); len(fails) != 1 ||
		!strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("want the allocs/op failure, got %v", fails)
	}

	// Off one core a parallel row's count wanders with goroutine
	// scheduling: 4701 -> 4707 on an unchanged commit must pass, +10% must
	// not; at GOMAXPROCS=1 on both sides the allowance is 1%.
	noisy := func(baseProcs, curProcs int, allocs int64) []string {
		return CompareTick(
			Tick{Identical: true, Rows: []TickRow{{Name: "world_run_w2", Workers: 2, GoMaxProcs: baseProcs, AllocsPerOp: 4701}}},
			Tick{Identical: true, Rows: []TickRow{{Name: "world_run_w2", Workers: 2, GoMaxProcs: curProcs, AllocsPerOp: allocs}}},
			0.25)
	}
	if fails := noisy(1, 2, 4707); len(fails) != 0 {
		t.Fatalf("scheduling noise on two cores failed the gate: %v", fails)
	}
	if fails := noisy(1, 2, 5172); len(fails) != 1 {
		t.Fatalf("want the allocs/op failure past 10%%, got %v", fails)
	}
	if fails := noisy(1, 1, 4707); len(fails) != 0 {
		t.Fatalf("run-to-run noise on one core failed the gate: %v", fails)
	}
	if fails := noisy(1, 1, 4749); len(fails) != 1 {
		t.Fatalf("want the allocs/op failure past 1%% on one core, got %v", fails)
	}

	// Same machine, regressed wall clock and broken identity.
	cur = Tick{
		Identical: false,
		Rows: []TickRow{
			{Name: "world_step_w1", Workers: 1, GoMaxProcs: 4, NsPerOp: 2000, AllocsPerOp: 10},
		},
	}
	fails := CompareTick(base, cur, 0.25)
	if len(fails) != 2 {
		t.Fatalf("want 2 failures (ns/op, identity), got %d: %v", len(fails), fails)
	}
	joined := strings.Join(fails, "\n")
	for _, frag := range []string{"ns/op", "identity"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("failures missing %q: %v", frag, fails)
		}
	}
}

// TestTickRoundTrip checks BENCH_tick.json survives a write/load cycle.
func TestTickRoundTrip(t *testing.T) {
	rep := Tick{
		BenchSchema: TickSchemaVersion,
		GoMaxProcs:  4,
		NumCPU:      8,
		GoVersion:   "go-test",
		Identical:   true,
		Rows: []TickRow{{
			Name: "world_step_w2", Workers: 2, GoMaxProcs: 4,
			NsPerOp: 123.5, BytesPerOp: 64, AllocsPerOp: 2,
			SpeedupVsSerial: 1.8,
		}},
	}
	path := filepath.Join(t.TempDir(), "tick.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTick(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, rep)
	}
}
