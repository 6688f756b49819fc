// Package perf is the repository's performance-regression harness. It
// measures the query hot path with Go's own benchmark machinery
// (testing.Benchmark), times the parallel sweep engine against its
// serial run while asserting bit-identical output, and compares the
// resulting report against a committed baseline so CI can fail on
// regressions.
//
// The harness is a library so both cmd/lbsq-bench and the test suite
// drive the exact same measurements.
package perf

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/experiments"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
	"lbsq/internal/sim"
	"lbsq/internal/trust"
)

// HotpathSchemaVersion versions the BENCH_hotpath.json format.
const HotpathSchemaVersion = 1

// Micro is one micro-benchmark row: the steady-state cost of a hot-path
// operation as measured by testing.Benchmark.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Sweep records the parallel-vs-serial engine measurement: the same
// figure sweep run with one worker and with `Workers` workers, the wall
// clock of each, and whether the outputs were bit-identical (they must
// be; `Identical: false` in a report is a bug).
type Sweep struct {
	Cells           int     `json:"cells"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Identical       bool    `json:"identical"`
}

// Hotpath is the full BENCH_hotpath.json document.
type Hotpath struct {
	BenchSchema int     `json:"bench_schema"`
	GoMaxProcs  int     `json:"go_max_procs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	Micro       []Micro `json:"micro"`
	Sweep       Sweep   `json:"sweep"`
}

// workload builds the deterministic hot-path fixtures shared by every
// micro benchmark: a 500-POI field on a 32×32 area, 64 sound peers, and
// a broadcast schedule (mirrors internal/core's benchmark fixtures).
type workload struct {
	db    []broadcast.POI
	peers []core.PeerData
	sched *broadcast.Schedule
	q     geom.Point
}

func newWorkload() workload {
	rng := rand.New(rand.NewSource(2))
	db := make([]broadcast.POI, 500)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	peers := make([]core.PeerData, 0, 64)
	for i := 0; i < 64; i++ {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		pd := core.PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		panic(fmt.Sprintf("perf: %v", err))
	}
	return workload{db: db, peers: peers, sched: sched, q: geom.Pt(16, 16)}
}

func row(name string, r testing.BenchmarkResult) Micro {
	ns := float64(0)
	if r.N > 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return Micro{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// MicroBenchmarks measures the steady-state hot path: warm-scratch NNV
// and SBNN/SBWQ, the cold (allocate-per-query) NNV for contrast, the
// strip-indexed RectUnion distance/area queries, a p2p buffer-reuse
// neighbor lookup, and one full simulation step of a small world.
func MicroBenchmarks() []Micro {
	wl := newWorkload()
	var out []Micro

	out = append(out, row("nnv_64peers_warm", testing.Benchmark(func(b *testing.B) {
		var s core.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.NNVScratch(&s, wl.q, wl.peers, 5, 0.5)
		}
	})))

	out = append(out, row("nnv_64peers_cold", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.NNV(wl.q, wl.peers, 5, 0.5)
		}
	})))

	out = append(out, row("sbnn_64peers_warm", testing.Benchmark(func(b *testing.B) {
		var s core.Scratch
		cfg := core.SBNNConfig{K: 5, Lambda: 0.5, AcceptApproximate: true, MinCorrectness: 0.5}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.SBNNScratch(&s, wl.q, wl.peers, cfg, wl.sched, int64(i))
		}
	})))

	out = append(out, row("sbwq_64peers_warm", testing.Benchmark(func(b *testing.B) {
		var s core.Scratch
		w := geom.NewRect(14, 14, 18, 18)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.SBWQScratch(&s, wl.q, w, wl.peers, core.SBWQConfig{}, wl.sched, int64(i))
		}
	})))

	out = append(out, row("rect_union_boundary_dist", testing.Benchmark(func(b *testing.B) {
		var u geom.RectUnion
		for _, p := range wl.peers {
			u.Add(p.VR)
		}
		rng := rand.New(rand.NewSource(7))
		pts := make([]geom.Point, 256)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*32, rng.Float64()*32)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.BoundaryDist(pts[i%len(pts)])
		}
	})))

	out = append(out, row("rect_union_circle_area", testing.Benchmark(func(b *testing.B) {
		var u geom.RectUnion
		for _, p := range wl.peers {
			u.Add(p.VR)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.IntersectCircleArea(wl.q, 3+float64(i%5))
		}
	})))

	out = append(out, row("p2p_append_neighbors", testing.Benchmark(func(b *testing.B) {
		net, err := p2p.NewNetwork(geom.NewRect(0, 0, 2000, 2000), 200)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for id := 0; id < 2000; id++ {
			net.Update(id, geom.Pt(rng.Float64()*2000, rng.Float64()*2000))
		}
		var buf []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = net.AppendNeighbors(buf[:0], geom.Pt(1000, 1000), 200, -1)
		}
	})))

	out = append(out, row("trust_screen_64peers_honest", testing.Benchmark(func(b *testing.B) {
		benchScreen(b, wl, trust.Config{AuditRate: 0.1}, 0)
	})))

	// Nobody is ever vouched (the audit rate rounds to never), so every
	// contribution is reduced by the whole quarantine, held at its cap.
	out = append(out, row("trust_screen_64peers_quar1024", testing.Benchmark(func(b *testing.B) {
		benchScreen(b, wl, trust.Config{AuditRate: 1e-12, QuarantineCycles: 1 << 40, ConvictStrikes: 1 << 30}, 1024)
	})))

	out = append(out, row("world_step_small", testing.Benchmark(func(b *testing.B) {
		p := sim.LACity().Scaled(1).WithDuration(0.1)
		p.TimeStepSec = 10
		p.Seed = 42
		w, err := sim.NewWorld(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step(p.TimeStepSec)
		}
	})))

	return out
}

// benchScreen measures one steady-state trust screen over the workload's
// 64 peers as contributions of 64 distinct peer ids, behind an engine
// that first quarantined `quar` distinct conflict rectangles inside the
// peers' area (two strangers disagreeing on an overlap, once per
// rectangle). The oracle is a lookup, so a passed audit costs the screen
// nothing but its own comparison.
func benchScreen(b *testing.B, wl workload, cfg trust.Config, quar int) {
	contribs := make([]trust.Contribution, len(wl.peers))
	truth := make(map[geom.Rect][]broadcast.POI, len(wl.peers))
	for i, pd := range wl.peers {
		contribs[i] = trust.Contribution{Peer: i, VR: pd.VR, POIs: pd.POIs}
		truth[pd.VR] = pd.POIs
	}
	oracle := func(r geom.Rect) []broadcast.POI { return truth[r] }
	e := trust.NewEngine(5, cfg, nil)
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < quar; k++ {
		x, y := 12+rng.Float64()*12, 12+rng.Float64()*12
		overlap := geom.NewRect(x, y, x+0.2+rng.Float64(), y+0.2+rng.Float64())
		lie := broadcast.POI{ID: int64(1_000_000 + k), Pos: overlap.Center()}
		e.Screen([]trust.Contribution{
			{Peer: 1000 + 2*k, VR: geom.Rect{Min: overlap.Min.Sub(geom.Pt(1, 1)), Max: overlap.Max}, POIs: []broadcast.POI{lie}},
			{Peer: 1001 + 2*k, VR: geom.Rect{Min: overlap.Min, Max: overlap.Max.Add(geom.Pt(1, 1))}},
		}, oracle, 0)
	}
	if e.QuarantinedRects() != quar {
		b.Fatalf("fixture quarantined %d rectangles, want %d", e.QuarantinedRects(), quar)
	}
	for i := 0; i < 64; i++ { // reach the vouching steady state
		e.Screen(contribs, oracle, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Screen(contribs, oracle, -1)
	}
}

// figuresEqual reports deep equality of two figure slices.
func figuresEqual(a, b []experiments.Figure) bool { return reflect.DeepEqual(a, b) }

// SweepTiming runs the Fig10 sweep at the given scale twice — serial
// and with `workers` workers — and returns the wall-clock comparison.
// The parallel figure must equal the serial one bit-for-bit; Identical
// records the check so the report is self-auditing.
func SweepTiming(o experiments.Options, workers int) Sweep {
	serialOpt := o
	serialOpt.Parallel = 1
	start := time.Now()
	serial := experiments.Fig10(serialOpt)
	serialSec := time.Since(start).Seconds()

	parOpt := o
	parOpt.Parallel = workers
	start = time.Now()
	par := experiments.Fig10(parOpt)
	parSec := time.Since(start).Seconds()

	cells := 0
	for _, s := range serial.Series {
		cells += len(s.Points)
	}
	speedup := 0.0
	if parSec > 0 {
		speedup = serialSec / parSec
	}
	return Sweep{
		Cells:           cells,
		Workers:         workers,
		SerialSeconds:   serialSec,
		ParallelSeconds: parSec,
		Speedup:         speedup,
		Identical:       figuresEqual([]experiments.Figure{serial}, []experiments.Figure{par}),
	}
}

// Measure produces the full hot-path report.
func Measure(o experiments.Options, workers int) Hotpath {
	return Hotpath{
		BenchSchema: HotpathSchemaVersion,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Micro:       MicroBenchmarks(),
		Sweep:       SweepTiming(o, workers),
	}
}

// WriteFile writes the report as indented JSON.
func (h Hotpath) WriteFile(path string) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadHotpath reads a previously written report.
func LoadHotpath(path string) (Hotpath, error) {
	var h Hotpath
	data, err := os.ReadFile(path)
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return h, fmt.Errorf("perf: %s: %w", path, err)
	}
	return h, nil
}

// Compare checks the current report against a baseline: any micro
// benchmark whose ns/op regressed by more than tolerance (e.g. 0.25 for
// 25%) or whose allocs/op grew at all fails. Rows present only on one
// side are ignored (benchmarks may be added or retired), as is the
// sweep timing (wall clock is machine-dependent; only Identical is
// enforced). Returns the list of human-readable failures.
func Compare(baseline, current Hotpath, tolerance float64) []string {
	base := make(map[string]Micro, len(baseline.Micro))
	for _, m := range baseline.Micro {
		base[m.Name] = m
	}
	var failures []string
	for _, cur := range current.Micro {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op %.0f -> %.0f (+%.0f%%, tolerance %.0f%%)",
				cur.Name, b.NsPerOp, cur.NsPerOp,
				100*(cur.NsPerOp/b.NsPerOp-1), 100*tolerance))
		}
		if cur.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %d -> %d (steady-state allocations must not grow)",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	if !current.Sweep.Identical {
		failures = append(failures, "sweep: parallel output differed from serial (determinism contract broken)")
	}
	return failures
}
