// Command bench is the repository's end-to-end and per-layer benchmark.
//
// It drives the real simulator (sim.NewWorld + World.Step) from outside
// on five workloads and reports ten end-to-end metrics per workload; a
// separate traced run splits the cost by layer (CPU samples charged to
// packages, exact counts from the public counters, and a replay of the
// plain query path with a span around every exported call). README.md
// has the glossary, the workload rationale and the measured baseline.
//
//	go run . -seed 42                  one set: -repeats runs of every workload
//	go run . -seed 42 -trace           … plus one traced run per workload
//	go run . -agree                    two sets back to back, compared
//	go run . -workload knn_dense -seed 42 -seconds 10 -trace 0
//	                                   one run; the last line is the result JSON
//
// A run is one process. Sets re-execute this binary once per run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// envStamp records what the host-time numbers depend on.
type envStamp struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	OSArch     string `json:"os_arch"`
}

func stampEnv() envStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return envStamp{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOGC: gogc, OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

// errRaceBuild refuses a -race build: the detector slows the simulator
// five- to tenfold and unevenly by layer, so no number would mean anything.
var errRaceBuild = errors.New("bench: built with -race; rebuild without it (the race detector distorts every host-time metric)")

func checkBuild(race bool) error {
	if race {
		return errRaceBuild
	}
	return nil
}

// joinTraceValue rewrites "-trace 0|1" (two arguments, as the benchmark
// driver passes it) into "-trace=0|1", which is what a boolean flag
// parses; a bare "-trace" stays a plain true.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload once and print the result JSON as the last line")
		seed         = fs.Int64("seed", 42, "workload seed: the only input that varies")
		seconds      = fs.Int("seconds", refSeconds, "run length in seconds of timed stepping (sets how many worlds a run pools)")
		trace        = fs.Bool("trace", false, "traced run: per-layer metrics and out/trace_<workload>.json (with -workload), or one extra traced run per workload (sets)")
		repeats      = fs.Int("repeats", 3, "runs per workload in a set")
		quick        = fs.Bool("quick", false, "shrink every workload to under a second (smoke test, not a measurement)")
		agree        = fs.Bool("agree", false, "run two sets back to back and check they agree within every metric's bound")
		against      = fs.String("against", "", "with -agree: the first set runs this other bench binary (the parent), the second this one")
		outDir       = fs.String("out", "out", "directory for trace files and set summaries")
		manifest     = fs.Bool("benchmark-json", false, "print BENCHMARK.json as the registry declares it, and exit")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := checkBuild(raceEnabled); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *manifest {
		os.Stdout.Write(benchmarkManifest())
		return 0
	}
	if *seconds < 1 || *repeats < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeats must be at least 1")
		return 2
	}

	if *workloadName != "" {
		wl, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return singleRun(runConfig{wl: wl, seed: *seed, seconds: *seconds,
			quick: *quick, trace: *trace, outDir: *outDir})
	}

	sc := setConfig{seed: *seed, seconds: *seconds, repeats: *repeats,
		quick: *quick, trace: *trace, outDir: *outDir}
	var err error
	if *agree {
		err = runAgree(sc, *against)
	} else {
		err = runSet(sc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// singleRun executes one run and prints the detail line, then the
// result line. It exits non-zero when the run could not be carried out
// or its outputs were wrong.
func singleRun(cfg runConfig) int {
	res, det, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, p := range det.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", cfg.wl.Name, p)
	}
	dj, err := json.Marshal(struct {
		Detail detail   `json:"detail"`
		Env    envStamp `json:"env"`
	}{det, stampEnv()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", dj, rj)
	if !res.Correct {
		return 1
	}
	return 0
}

// manifest is the schema of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// benchmarkManifest renders BENCHMARK.json from the registry, so the
// file at the repository root is generated, not typed:
//
//	go run . -benchmark-json > ../BENCHMARK.json
func benchmarkManifest() []byte {
	doc := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
	}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, manifestWorkload{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, manifestMetric{m.Name, m.Unit, m.Better, nil})
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return append(js, '\n')
}
