// Command lbsq-bench runs the performance-regression harness: the
// hot-path micro benchmarks (steady-state ns/op, B/op, allocs/op of the
// scratch-based query kernels), the parallel-sweep timing with its
// serial-identity check, and optionally a comparison against a
// committed baseline report.
//
// Usage:
//
//	lbsq-bench [-out results/BENCH_hotpath.json] [-compare baseline.json]
//	           [-quick] [-parallel n] [-tolerance 0.25]
//	lbsq-bench -tick [-out results/BENCH_tick.json] [-compare baseline.json]
//
// With -compare the exit status is nonzero when any micro benchmark
// regressed beyond the tolerance (ns/op) or grew its steady-state
// allocation count, or when the parallel sweep stopped being
// bit-identical to serial — the CI bench-smoke gate.
//
// With -tick the command measures the batched per-tick query engine
// instead (DESIGN.md §14): World.Step at each TickWorkers setting and
// the embedded serial-identity check.
// Rows record the GOMAXPROCS they ran under, and -compare only judges
// wall clock between rows measured at matching GOMAXPROCS, so reports
// from machines of different widths never produce phantom regressions.
package main

import (
	"flag"
	"fmt"
	"os"

	"lbsq/internal/experiments"
	"lbsq/internal/perf"
	"lbsq/internal/sweep"
)

func main() {
	var (
		out       = flag.String("out", "", "write the hot-path report to this JSON file")
		compare   = flag.String("compare", "", "compare against this baseline report; nonzero exit on regression")
		quick     = flag.Bool("quick", false, "reduced sweep scale for smoke runs")
		parallel  = flag.Int("parallel", 0, "sweep worker count for the timing comparison (0 = GOMAXPROCS)")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression before -compare fails")
		tick      = flag.Bool("tick", false, "measure the batched tick engine (BENCH_tick.json) instead of the hot path")
	)
	flag.Parse()

	if *tick {
		runTick(*out, *compare, *tolerance)
		return
	}

	opt := experiments.Options{}
	if *quick {
		opt = experiments.Fast()
		opt.SideMiles = 2
		opt.DurationHours = 0.1
	}
	workers := sweep.Workers(*parallel)

	rep := perf.Measure(opt, workers)
	for _, m := range rep.Micro {
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	fmt.Printf("sweep: %d cells, serial %.2fs, %d workers %.2fs, speedup %.2fx, identical=%v\n",
		rep.Sweep.Cells, rep.Sweep.SerialSeconds, rep.Sweep.Workers,
		rep.Sweep.ParallelSeconds, rep.Sweep.Speedup, rep.Sweep.Identical)

	if !rep.Sweep.Identical {
		fmt.Fprintln(os.Stderr, "FATAL: parallel sweep output differed from serial")
		os.Exit(1)
	}

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *compare != "" {
		base, err := perf.LoadHotpath(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		failures := perf.Compare(base, rep, *tolerance)
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "bench-compare: %d regression(s) vs %s:\n", len(failures), *compare)
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("bench-compare: no regressions vs %s (tolerance %.0f%%)\n",
			*compare, 100**tolerance)
	}
}

// runTick is the -tick mode: measure the batched tick engine, print the
// rows, and optionally write/compare the report.
func runTick(out, compare string, tolerance float64) {
	rep, err := perf.MeasureTick()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range rep.Rows {
		fmt.Printf("%-18s workers=%d gomaxprocs=%d %12.0f ns/op %10d B/op %6d allocs/op %6.2fx\n",
			r.Name, r.Workers, r.GoMaxProcs, r.NsPerOp, r.BytesPerOp,
			r.AllocsPerOp, r.SpeedupVsSerial)
	}
	fmt.Printf("tick: gomaxprocs=%d numcpu=%d identical=%v\n",
		rep.GoMaxProcs, rep.NumCPU, rep.Identical)

	if !rep.Identical {
		fmt.Fprintln(os.Stderr, "FATAL: batched tick engine output differed from serial")
		os.Exit(1)
	}

	if out != "" {
		if err := rep.WriteFile(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", out)
	}

	if compare != "" {
		base, err := perf.LoadTick(compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		failures := perf.CompareTick(base, rep, tolerance)
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "bench-compare: %d regression(s) vs %s:\n", len(failures), compare)
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("bench-compare: no regressions vs %s (tolerance %.0f%%)\n",
			compare, 100*tolerance)
	}
}
