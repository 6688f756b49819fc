// Command lbsq-sim runs a single configuration of the full system model
// (Section 4.1) and prints the resulting statistics. It defaults to a
// density-preserving 5-mile scale of the chosen Table 3 parameter set;
// pass -side 20 for the paper's full 20-mile area (the Los Angeles set
// then simulates all 93,300 vehicles).
//
// `lbsq-sim -h` lists every flag under the layer it configures. All but
// the ones registered by hand below are generated from the tagged knob
// declarations — sim.Params, the per-layer knob structs it embeds and
// faults.Profile (see internal/knob) — whose doc comments hold the
// semantics; a world knob left at zero keeps the preset's value. DESIGN.md
// has the models: §7 faults, §8 collection lifecycle, §10 metrics, §11
// trust, §12 consistency, §13 bursts, blackouts and the degraded planner,
// §15 continuous queries, §16 crowds and overload control. Every layer
// is off at its zero value, output is then bit-identical to a build
// without it, and every run is deterministic under -seed. A value
// outside a knob's range exits 2 naming the flag. The report is one
// sim.Report row, printed as text (Report.WriteText) or, with -json, as
// one JSONL object; the fault/resilience grid of such rows is
// `lbsq-figures -fig faults`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"lbsq/internal/faults"
	"lbsq/internal/knob"
	"lbsq/internal/metrics"
	"lbsq/internal/sim"
	"lbsq/internal/trace"
)

// cli holds the flags registered by hand — the preset, the seed (which may
// be negative), -corrupt (which lands in two fields) and the ones that
// steer the run and its output — and knobs, the Params every generated
// flag writes into (laid over the preset after parsing).
type cli struct {
	set, traceFile, mxOut, mxListen         string
	corrupt                                 float64
	seed                                    int64
	jsonOut, baseline, selfcheck, metricsOn bool
	knobs                                   sim.Params
}

// register defines all of lbsq-sim's flags on fs.
func register(fs *flag.FlagSet) *cli {
	c := &cli{knobs: sim.Params{AreaMiles: 5, DurationHours: 0.5, TimeStepSec: 10, AcceptApproximate: true,
		SharingHops: 1, PrefillQueriesPerHost: 10}}
	knob.Bind(fs, &c.knobs)
	fs.StringVar(&c.set, "set", "la", "parameter set: la, suburbia, riverside")
	fs.Int64Var(&c.seed, "seed", 42, "random seed")
	fs.BoolVar(&c.baseline, "baseline", false, "also price every query with the plain on-air algorithms")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "verify every exact result against the R-tree ground truth")
	fs.StringVar(&c.traceFile, "trace", "", "write one JSONL event per counted query to this file")
	fs.Float64Var(&c.corrupt, "corrupt", 0, "P2P reply damage rate, half truncation half bit flips [0, 0.95]")
	fs.BoolVar(&c.jsonOut, "json", false, "emit one JSON object (config + full Stats) on stdout instead of the report")
	fs.BoolVar(&c.metricsOn, "metrics", false, "enable the observability layer (counters, gauges, per-phase histograms)")
	fs.StringVar(&c.mxOut, "metrics-out", "", "write the final metrics snapshot as Prometheus text exposition to this file (implies -metrics)")
	fs.StringVar(&c.mxListen, "metrics-listen", "", "serve /metrics and /debug/pprof on this address while the run progresses (implies -metrics)")
	fs.Usage = func() { usage(fs, &c.knobs) }
	return c
}

// usage prints every flag under the `layer` title its knob is declared
// beneath, in declaration order of the layers; the untitled knobs of
// sim.Params and the flags registered by hand come first. Each group goes
// through a FlagSet of its own, so the lines are flag.PrintDefaults's.
func usage(fs *flag.FlagSet, knobs *sim.Params) {
	layerOf := map[string]string{}
	layers := []string{""}
	knob.Walk(knobs, func(k knob.Knob) {
		layerOf[k.Flag] = k.Layer
		if k.Flag != "" && !slices.Contains(layers, k.Layer) {
			layers = append(layers, k.Layer)
		}
	})
	w := fs.Output()
	fmt.Fprintf(w, "Usage: lbsq-sim [flags]\n\nrun, world and output:\n")
	for _, layer := range layers {
		if layer != "" {
			fmt.Fprintf(w, "\n%s:\n", layer)
		}
		group := flag.NewFlagSet(layer, flag.ContinueOnError)
		group.SetOutput(w)
		fs.VisitAll(func(f *flag.Flag) {
			if layerOf[f.Name] == layer {
				group.Var(f.Value, f.Name, f.Usage)
				group.Lookup(f.Name).DefValue = f.DefValue // not what was parsed before -h
			}
		})
		group.PrintDefaults()
	}
}

// die prints the error and exits: 2 for a bad command line, 1 for a run
// that failed.
func die(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

func main() {
	c := register(flag.CommandLine)
	flag.Parse()

	// Every knob is range-checked here, at parse time, so a typo like
	// -loss -0.1 or -churn-rate NaN dies with the flag's name; -corrupt is
	// checked whole because it lands in two fields.
	if !(c.corrupt >= 0 && c.corrupt <= faults.MaxRate) { // NaN fails too
		die(2, fmt.Errorf("-corrupt: %v out of [0, %v]", c.corrupt, faults.MaxRate))
	}
	if err := knob.Check(&c.knobs); err != nil {
		die(2, err)
	}

	preset, ok := map[string]func() sim.Params{
		"la": sim.LACity, "suburbia": sim.SyntheticSuburbia, "riverside": sim.RiversideCounty,
	}[strings.ToLower(c.set)]
	if !ok {
		die(2, fmt.Errorf("unknown parameter set %q", c.set))
	}
	p := preset().Scaled(c.knobs.AreaMiles).WithDuration(c.knobs.DurationHours)
	knob.Copy(&p, &c.knobs) // every generated flag not left at zero, onto the preset
	p.Seed = c.seed
	p.Faults.ReplyTruncate, p.Faults.ReplyCorrupt = c.corrupt/2, c.corrupt/2
	p.Metrics = c.metricsOn || c.mxOut != "" || c.mxListen != ""

	w, err := sim.NewWorld(p)
	if err != nil {
		die(1, err)
	}
	p = w.Params // defaults applied: the reports below show the values simulated
	w.CompareBaseline = c.baseline
	w.SelfCheck = c.selfcheck
	var traceOut *os.File
	if c.traceFile != "" {
		if traceOut, err = os.Create(c.traceFile); err != nil {
			die(1, err)
		}
		w.Trace = trace.NewWriter(traceOut)
	}

	if c.mxListen != "" {
		// Live observability: /metrics serves the latest published
		// snapshot (immutable, so no lock touches the simulation
		// goroutine) and /debug/pprof exposes the runtime profiles on the
		// same mux.
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(w.Metrics()))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(c.mxListen, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
			}
		}()
		if !c.jsonOut {
			fmt.Printf("serving /metrics and /debug/pprof on %s\n\n", c.mxListen)
		}
	}

	start := time.Now()
	var stats sim.Stats
	if reg := w.Metrics(); reg != nil {
		// Publish a fresh snapshot after every simulation step so the
		// HTTP endpoint tracks the run; the hook only reads, so the
		// trajectory is identical to a plain Run.
		stats = w.RunTick(func() { reg.Publish() })
	} else {
		stats = w.Run()
	}
	elapsed := time.Since(start)

	// Written out before the run is judged: a self-check failure keeps its trace.
	if traceOut != nil {
		if err := errors.Join(w.Trace.Flush(), traceOut.Close()); err != nil {
			die(1, fmt.Errorf("trace %s: %v", c.traceFile, err))
		}
	}
	if err := w.SelfCheckErr(); err != nil {
		die(1, fmt.Errorf("SELF-CHECK FAILED: %v", err))
	}

	if c.mxOut != "" {
		if err := writeMetrics(c.mxOut, w.Metrics()); err != nil {
			die(1, err)
		}
	}

	rep := sim.NewReport(p, stats, c.selfcheck, elapsed.Seconds())
	if c.jsonOut {
		if reg := w.Metrics(); reg != nil {
			snap := reg.Snapshot()
			rep.Metrics = &snap
		}
		emitJSON(rep)
		return
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		die(1, err)
	}
	if base := stats.BaselineMeanLatencySlots(); c.baseline && base > 0 {
		fmt.Printf("\nlatency reduction from sharing: %.1f%%\n", 100*(1-stats.MeanSystemLatencySlots()/base))
	}
	if c.selfcheck {
		fmt.Println("\nself-check: every exact result matched the R-tree ground truth")
	}
	if c.traceFile != "" {
		fmt.Printf("trace: %d events written to %s\n", w.Trace.Count(), c.traceFile)
	}
	if c.mxOut != "" {
		fmt.Printf("metrics: snapshot written to %s\n", c.mxOut)
	}
	fmt.Printf("\nwall time %.1fs\n", elapsed.Seconds())
}

// writeMetrics dumps the final registry snapshot as Prometheus text
// exposition (format 0.0.4) — deterministic for a fixed seed.
func writeMetrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(reg.WriteText(f), f.Close())
}

func emitJSON(rep sim.Report) {
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		die(1, err)
	}
}
