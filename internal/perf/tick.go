package perf

// Tick-engine benchmarks (DESIGN.md §14.4): a full world run at
// several Params.TickWorkers settings, each row stamped with the
// GOMAXPROCS it ran under so speedups are honest on any machine — a
// single-core runner records ~1.0×, not a fabricated parallel win — plus
// an embedded serial-identity check mirroring the sim package's
// byte-identity tests.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lbsq/internal/sim"
)

// TickSchemaVersion versions the BENCH_tick.json format.
const TickSchemaVersion = 3

// TickWorkerCounts are the Params.TickWorkers settings each report
// measures; index 0 must stay 1 (the serial baseline the speedups are
// relative to).
var TickWorkerCounts = []int{1, 2, 4}

// TickRow is one World.Step measurement under the batched engine.
type TickRow struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// GoMaxProcs is recorded per row, not just per document, so a file
	// assembled across machines (or a CPU-restricted run) stays honest
	// about what parallelism was actually available.
	GoMaxProcs  int     `json:"go_max_procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SpeedupVsSerial is this row's ns/op relative to the workers=1 row.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// Tick is the full BENCH_tick.json document.
type Tick struct {
	BenchSchema int    `json:"bench_schema"`
	GoMaxProcs  int    `json:"go_max_procs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	// Identical records the embedded serial-identity check: a batched
	// run's Stats must equal the serial run's.
	// False in a report is a bug, and CompareTick fails on it.
	Identical bool      `json:"identical"`
	Rows      []TickRow `json:"rows"`
}

// tickParams is the world the tick benchmarks run: a 4-mile LA world
// with warm caches, whose 10-second ticks carry ~40 queries each — real
// batches, so the rows measure what several workers buy, not what
// dispatching near-empty batches costs. One benchmark op is one full
// world run, set-up untimed — World.Step cost grows with simulated time
// as caches fill, so an auto-ramped open-ended step loop would measure
// whatever horizon the ramp happened to reach; a bounded, identical
// workload per op keeps rows comparable across runs and machines.
func tickParams(workers int) sim.Params {
	p := sim.LACity().Scaled(4).WithDuration(0.1)
	p.TimeStepSec = 10
	p.Seed = 42
	p.PrefillQueriesPerHost = 10
	p.TickWorkers = workers
	return p
}

// TickIdentical runs the benchmark world serially and batched and
// reports whether the Stats match. The full byte-identity matrix lives
// in internal/sim's tests; this is the self-auditing check embedded in
// the perf report.
func TickIdentical(workers int) (bool, error) {
	run := func(workers int) (sim.Stats, error) {
		w, err := sim.NewWorld(tickParams(workers))
		if err != nil {
			return sim.Stats{}, err
		}
		return w.Run(), nil
	}
	serial, err := run(1)
	if err != nil {
		return false, err
	}
	batched, err := run(workers)
	if err != nil {
		return false, err
	}
	return serial == batched, nil
}

// MeasureTick produces the full tick-engine report.
func MeasureTick() (Tick, error) {
	rep := Tick{
		BenchSchema: TickSchemaVersion,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
	}
	maxWorkers := TickWorkerCounts[len(TickWorkerCounts)-1]
	ok, err := TickIdentical(maxWorkers)
	if err != nil {
		return rep, err
	}
	rep.Identical = ok

	var serialNs float64
	for _, workers := range TickWorkerCounts {
		workers := workers
		r := testing.Benchmark(func(b *testing.B) {
			p := tickParams(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Building the world (POI field, prefilled caches) is the
				// same work at every worker count and several times the run.
				b.StopTimer()
				w, err := sim.NewWorld(p)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				w.Run()
			}
		})
		row := TickRow{
			Name:        fmt.Sprintf("world_run_w%d", workers),
			Workers:     workers,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.N > 0 {
			row.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		if workers == 1 {
			serialNs = row.NsPerOp
		}
		if serialNs > 0 && row.NsPerOp > 0 {
			row.SpeedupVsSerial = serialNs / row.NsPerOp
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteFile writes the report as indented JSON (same contract as
// Hotpath.WriteFile).
func (t Tick) WriteFile(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTick reads a previously written tick report.
func LoadTick(path string) (Tick, error) {
	var t Tick
	data, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("perf: %s: %w", path, err)
	}
	return t, nil
}

// CompareTick checks a current tick report against a baseline. Wall
// clock is compared only between rows measured under the same
// GOMAXPROCS (a 1-core baseline says nothing about a 4-core run).
// Allocs/op must not grow by more than 1% when both rows were measured
// at GOMAXPROCS=1, or by more than 10% otherwise. An op is a handful of
// world runs, so the count carries the runtime's own allocations and,
// on the parallel rows, how many pooled scratches were live at once and
// how often the collector cleared the pools — measured on the benchmark
// world: ±0.3% run to run on one core, +5–8% from one core to two, ±2%
// run to run on two. One more allocation per query is +14% (parallel
// rows) to +22% (serial row), so both allowances still catch it. The
// embedded identity check must hold. Returns human-readable failures.
func CompareTick(baseline, current Tick, tolerance float64) []string {
	base := make(map[string]TickRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Name] = r
	}
	var failures []string
	for _, cur := range current.Rows {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		if b.GoMaxProcs == cur.GoMaxProcs && b.NsPerOp > 0 &&
			cur.NsPerOp > b.NsPerOp*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op %.0f -> %.0f (+%.0f%%, tolerance %.0f%%)",
				cur.Name, b.NsPerOp, cur.NsPerOp,
				100*(cur.NsPerOp/b.NsPerOp-1), 100*tolerance))
		}
		slack := b.AllocsPerOp / 100
		if b.GoMaxProcs != 1 || cur.GoMaxProcs != 1 {
			slack = b.AllocsPerOp / 10
		}
		if cur.AllocsPerOp > b.AllocsPerOp+slack {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %d -> %d (steady-state allocations must not grow)",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	if !current.Identical {
		failures = append(failures,
			"tick: batched engine output differed from serial (identity contract broken)")
	}
	return failures
}
