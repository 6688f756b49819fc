// Command lbsq-figures regenerates the paper's evaluation figures
// (Figures 10–15), the latency-reduction table, the hit-ratio
// analysis-vs-simulation comparison, and the design ablations, printing
// the series as aligned text tables.
//
// Usage:
//
//	lbsq-figures [-fig all|10|11|12|13|14|15|latency|analysis|ablation|
//	              calibration|lifetime|phases|faults]
//	             [-side miles] [-hours h] [-step sec] [-seed n]
//	             [-svg dir] [-pprof addr]
//
// -fig phases prints the per-phase query-cost breakdown (the
// EXPERIMENTS.md latency-breakdown table) from metrics-enabled runs.
// -fig faults runs the fault/resilience grid (internal/experiments.FaultGrid,
// the `make bench` cells) and prints one self-checked sim.Report JSON line
// per cell and nothing else; only -side and -hours apply.
// -pprof serves net/http/pprof on the given address for profiling long
// figure regenerations.
//
// The default scale is a density-preserving 5-mile area simulated for 0.5
// hours per cell (seconds per figure). Pass -side 20 -hours 10 to run the
// paper's full configuration.
//
// Cells run on GOMAXPROCS workers. Every worker count produces
// byte-identical output: cells own their seeded worlds and results
// reassemble in cell order (internal/sweep).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lbsq/internal/experiments"
	"lbsq/internal/sweep"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: all, 10..15, latency, analysis, ablation, calibration, lifetime, phases, faults")
		side    = flag.Float64("side", 5, "service area side in miles (density-preserving scale of the 20-mile Table 3 area)")
		hours   = flag.Float64("hours", 0.5, "simulated hours per experiment cell")
		step    = flag.Float64("step", 10, "simulation time step in seconds")
		seed    = flag.Int64("seed", 42, "random seed")
		svg     = flag.String("svg", "", "directory to also write figures as SVG plots (created if missing)")
		pprofAd = flag.String("pprof", "", "serve net/http/pprof on this address while figures regenerate")
	)
	flag.Parse()

	if *pprofAd != "" {
		// net/http/pprof registers its handlers on the default mux.
		go func() {
			if err := http.ListenAndServe(*pprofAd, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("serving /debug/pprof on %s\n\n", *pprofAd)
	}

	svgDir = *svg
	opt := experiments.Options{
		SideMiles:     *side,
		DurationHours: *hours,
		TimeStepSec:   *step,
		Seed:          *seed,
	}

	start := time.Now()
	switch *fig {
	case "all":
		for _, f := range experiments.Figures(opt) {
			printFigure(f)
		}
		printLatency(opt)
		printAnalysis(opt)
		printAblations(opt)
		printCalibration(opt)
	case "latency":
		printLatency(opt)
	case "analysis":
		printAnalysis(opt)
	case "ablation":
		printAblations(opt)
	case "calibration":
		printCalibration(opt)
	case "lifetime":
		printLifetime(opt)
	case "phases":
		printPhases(opt)
	case "faults":
		printFaultGrid(opt) // JSONL only: no trailer
		return
	default:
		f, err := experiments.ByID(*fig, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		printFigure(f)
	}
	fmt.Printf("\ncompleted in %.1fs (side=%.1f mi, %.2f h per cell, seed %d)\n",
		time.Since(start).Seconds(), *side, *hours, *seed)
}

var svgDir string

func printFigure(f experiments.Figure) {
	if _, err := f.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	if svgDir == "" {
		return
	}
	if err := os.MkdirAll(svgDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := filepath.Join(svgDir, strings.ToLower(f.ID)+".svg")
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer out.Close()
	if err := f.Chart().WriteSVG(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n\n", path)
}

func printLatency(opt experiments.Options) {
	experiments.WriteLatency(os.Stdout, experiments.LatencyReduction(opt))
	fmt.Println()
}

func printAnalysis(opt experiments.Options) {
	experiments.WriteAnalysis(os.Stdout, experiments.AnalysisVsSim(opt))
	fmt.Println()
}

func printCalibration(opt experiments.Options) {
	experiments.WriteOrdering(os.Stdout, experiments.OrderingAblation(opt))
	fmt.Println()
	experiments.WriteCalibration(os.Stdout, "Poisson (lemma assumption)",
		experiments.CorrectnessCalibration(opt, false, 4000))
	fmt.Println()
	experiments.WriteCalibration(os.Stdout, "clustered (assumption violated)",
		experiments.CorrectnessCalibration(opt, true, 4000))
	fmt.Println()
}

func printLifetime(opt experiments.Options) {
	experiments.WriteLifetime(os.Stdout, experiments.ResultLifetime(opt))
	fmt.Println()
}

func printFaultGrid(opt experiments.Options) {
	reports, err := experiments.RunFaultGrid(sweep.Workers(), opt.SideMiles, opt.DurationHours)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, rep := range reports {
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func printPhases(opt experiments.Options) {
	experiments.WritePhases(os.Stdout, experiments.PhaseBreakdown(opt))
	fmt.Println()
}

func printAblations(opt experiments.Options) {
	fmt.Println("Ablation: cache replacement policy (kNN, shared-resolution %)")
	fmt.Printf("  %-20s %-20s %10s\n", "Parameter set", "policy", "shared %")
	for _, r := range experiments.CachePolicyAblation(opt) {
		fmt.Printf("  %-20s %-20s %10.1f\n", r.SetName, r.Policy, r.SharedPct)
	}
	fmt.Println()
	fmt.Println("Ablation: approximate-acceptance threshold (LA City kNN)")
	fmt.Printf("  %-10s %14s %14s\n", "threshold", "approx %", "broadcast %")
	for _, r := range experiments.ApproxThresholdAblation(opt) {
		fmt.Printf("  %-10.2f %14.1f %14.1f\n", r.Threshold, r.ApproximatePct, r.BroadcastPct)
	}
	fmt.Println()
	experiments.WriteMultiHop(os.Stdout, experiments.MultiHopAblation(opt))
	fmt.Println()
}
