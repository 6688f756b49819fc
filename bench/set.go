package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// setConfig is one set: -repeats runs of every workload, round-robin,
// each a child process, plus (with -trace) one traced run per workload.
type setConfig struct {
	seed    int64
	seconds int
	repeats int
	quick   bool
	trace   bool
	outDir  string
}

// runOutput is what a child run prints: the detail line and the result.
type runOutput struct {
	Detail detail
	Env    envStamp
	Result result
}

// childRun re-executes a bench binary for one run and parses its last
// two lines. A child that printed a result but exited non-zero (wrong
// outputs) is returned with its result, so the set can report it.
func childRun(exe string, sc setConfig, wl workload, trace bool) (runOutput, error) {
	args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(sc.seed, 10),
		"-seconds", strconv.Itoa(sc.seconds), "-out", sc.outDir}
	if trace {
		args = append(args, "-trace=1")
	}
	if sc.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()

	var out runOutput
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return out, fmt.Errorf("%s: run printed no result (%v)", wl.Name, runErr)
	}
	var head struct {
		Detail detail   `json:"detail"`
		Env    envStamp `json:"env"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &head); err != nil {
		return out, fmt.Errorf("%s: detail line: %w", wl.Name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out.Result); err != nil {
		return out, fmt.Errorf("%s: result line: %w", wl.Name, err)
	}
	out.Detail, out.Env = head.Detail, head.Env
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return out, fmt.Errorf("%s: %w", wl.Name, runErr)
	}
	return out, nil
}

// workloadSet is one workload's runs within a set.
type workloadSet struct {
	Workload string             `json:"workload"`
	Detail   detail             `json:"detail"` // of the first run
	Metrics  map[string]summary `json:"metrics"`
	// Digest is the sim_digest every run of the set (and the traced run)
	// produced; Failures lists what went wrong, digest mismatches included.
	Digest   string   `json:"sim_digest"`
	Failures []string `json:"failures,omitempty"`
	// Traced run, when asked for.
	PerLayer         map[string]float64 `json:"per_layer,omitempty"`
	TraceDetail      *detail            `json:"trace_detail,omitempty"`
	TraceOverheadPct float64            `json:"trace_overhead_pct,omitempty"`

	values map[string][]float64
}

func (ws *workloadSet) absorb(out runOutput) {
	if ws.values == nil {
		ws.values = map[string][]float64{}
		ws.Detail, ws.Digest = out.Detail, out.Detail.SimDigest
	}
	ws.checkRun("run", out)
	for name, v := range out.Result.Metrics {
		ws.values[name] = append(ws.values[name], v.Value)
	}
}

// checkRun applies the determinism gate to one run: correct outputs and
// the set's digest.
func (ws *workloadSet) checkRun(kind string, out runOutput) {
	if !out.Result.Correct {
		ws.Failures = append(ws.Failures, fmt.Sprintf("%s: outputs wrong: %v", kind, out.Detail.Problems))
	}
	if out.Detail.SimDigest != ws.Digest {
		ws.Failures = append(ws.Failures, fmt.Sprintf("%s: sim_digest %.12s differs from the set's %.12s: simulated statistics did not repeat",
			kind, out.Detail.SimDigest, ws.Digest))
	}
}

func (ws *workloadSet) finish() {
	ws.Metrics = map[string]summary{}
	for name, vs := range ws.values {
		ws.Metrics[name] = summarize(vs)
	}
}

// setReport is a whole set.
type setReport struct {
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Quick     bool           `json:"quick,omitempty"`
	Env       envStamp       `json:"env"`
	Workloads []*workloadSet `json:"workloads"`
}

func (r *setReport) failed() bool {
	for _, ws := range r.Workloads {
		if len(ws.Failures) > 0 {
			return true
		}
	}
	return false
}

func newSetReport(sc setConfig) *setReport {
	r := &setReport{Seed: sc.seed, Seconds: sc.seconds, Quick: sc.quick}
	for _, wl := range workloads {
		r.Workloads = append(r.Workloads, &workloadSet{Workload: wl.Name})
	}
	return r
}

// collectSet runs one set with the given binary.
func collectSet(exe string, sc setConfig) (*setReport, error) {
	rep := newSetReport(sc)
	for i := 0; i < sc.repeats; i++ {
		if err := rep.runRound(exe, sc); err != nil {
			return nil, err
		}
	}
	if sc.trace {
		for wi, wl := range workloads {
			fmt.Fprintf(os.Stderr, "bench: traced run of %s\n", wl.Name)
			out, err := childRun(exe, sc, wl, true)
			if err != nil {
				return nil, err
			}
			rep.Workloads[wi].absorbTrace(out)
		}
	}
	rep.finish()
	return rep, nil
}

// runRound runs every workload once, in registry order.
func (r *setReport) runRound(exe string, sc setConfig) error {
	for wi, wl := range workloads {
		fmt.Fprintf(os.Stderr, "bench: run %d of %s\n", len(r.Workloads[wi].values["setup_s"])+1, wl.Name)
		out, err := childRun(exe, sc, wl, false)
		if err != nil {
			return err
		}
		r.Env = out.Env
		r.Workloads[wi].absorb(out)
	}
	return nil
}

func (r *setReport) finish() {
	for _, ws := range r.Workloads {
		ws.finish()
	}
}

func (ws *workloadSet) absorbTrace(out runOutput) {
	ws.checkRun("traced run", out)
	ws.PerLayer = map[string]float64{}
	for name, v := range out.Result.Metrics {
		ws.PerLayer[name] = v.Value
	}
	d := out.Detail
	ws.TraceDetail = &d
	if timed := median(sortedCopy(ws.values["host_us_per_query"])); timed > 0 {
		ws.TraceOverheadPct = 100 * (d.WallUsPerQuery - timed) / timed
	}
}

func (r *setReport) print() {
	e := r.Env
	fmt.Printf("bench: seed %d, %d s runs, GOMAXPROCS %d of %d CPUs, %s, GOGC %s, %s\n",
		r.Seed, r.Seconds, e.GoMaxProcs, e.NumCPU, e.GoVersion, e.GOGC, e.OSArch)
	for _, ws := range r.Workloads {
		d := ws.Detail
		fmt.Printf("\n%s: %d worlds of %d hosts per run, %d timed queries over %d ticks (max %.2f ms), %.0f queries/s, VmHWM %.0f MB, sim_digest %.16s\n",
			ws.Workload, d.Replicas, d.Hosts, d.Queries, d.Ticks, d.TickMaxMs, d.QueriesPerSec, d.VmHWMMB, ws.Digest)
		fmt.Printf("  %-26s %-6s %12s %12s %12s %3s %7s %6s\n", "metric", "unit", "median", "q1", "q3", "n", "spread", "bound")
		for _, m := range endToEnd {
			s := ws.Metrics[m.Name]
			kind := "S"
			if m.Host {
				kind = "H"
			}
			fmt.Printf("  %-26s %-6s %12.4f %12.4f %12.4f %3d %6.1f%% %5.0f%% %s\n",
				m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N, 100*s.spread(), 100*m.Bound, kind)
		}
		if ws.PerLayer != nil {
			td := ws.TraceDetail
			fmt.Printf("  traced run: %d CPU samples, Σcpu = %.0f%% of wall, trace_overhead_pct %.1f, spans in %s\n",
				td.CPUSamples, 100*td.CPUSumRatio, ws.TraceOverheadPct, td.TraceFile)
			if td.ReplaySharedPct > 0 {
				fmt.Printf("  replay: shared_pct %.2f against the real run's %.2f (limit %.0f points)\n",
					td.ReplaySharedPct, td.RealSharedPct, replayTolerancePts)
			}
			for _, m := range perLayer {
				fmt.Printf("  %-52s %-6s %14.4f\n", m.Name, m.Unit, ws.PerLayer[m.Name])
			}
		}
		for _, f := range ws.Failures {
			fmt.Printf("  FAILED %s\n", f)
		}
	}
}

// save writes the set as JSON for later comparison.
func (r *setReport) save(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(js, '\n'), 0o644)
}

func runSet(sc setConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep, err := collectSet(exe, sc)
	if err != nil {
		return err
	}
	rep.print()
	if err := rep.save(sc.outDir, "set.json"); err != nil {
		return err
	}
	if rep.failed() {
		return errors.New("set failed its output checks (see FAILED lines)")
	}
	return nil
}

// runAgree runs two sets, alternating which goes first each round, and
// compares them metric by metric against the benchmark's own bounds.
// Without against both sets run this binary — the self-consistency check;
// with it the first set is the parent binary and the second the change.
func runAgree(sc setConfig, against string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	exeA, paired := self, against != ""
	if paired {
		exeA = against
	}
	sc.trace = false
	a, b := newSetReport(sc), newSetReport(sc)
	for i := 0; i < sc.repeats; i++ {
		first, second, exe1, exe2 := a, b, exeA, self
		if i%2 == 1 {
			first, second, exe1, exe2 = b, a, self, exeA
		}
		if err := first.runRound(exe1, sc); err != nil {
			return err
		}
		if err := second.runRound(exe2, sc); err != nil {
			return err
		}
	}
	a.finish()
	b.finish()
	if err := a.save(sc.outDir, "agree_a.json"); err != nil {
		return err
	}
	if err := b.save(sc.outDir, "agree_b.json"); err != nil {
		return err
	}

	labelA, labelB := "set A", "set B"
	if paired {
		labelA, labelB = "parent", "change"
	}
	bad := a.failed() || b.failed()
	for wi, wa := range a.Workloads {
		wb := b.Workloads[wi]
		same := wa.Digest == wb.Digest
		fmt.Printf("\n%s: sim_digest %s (%.12s / %.12s)\n", wa.Workload,
			map[bool]string{true: "identical", false: "DIFFERS"}[same], wa.Digest, wb.Digest)
		if !same && !paired {
			bad = true
		}
		for _, f := range append(wa.Failures, wb.Failures...) {
			fmt.Printf("  FAILED %s\n", f)
		}
		fmt.Printf("  %-26s %-6s %12s %12s %9s %8s %6s  %s\n", "metric", "unit", labelA, labelB, "worse by", "spread", "bound", "verdict")
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			v := verdict(worse, sa.spread(), m.Bound, paired)
			if v == "DISAGREE" {
				bad = true
			}
			fmt.Printf("  %-26s %-6s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, sa.Median, sb.Median, 100*worse, 100*sa.spread(), 100*m.Bound, v)
		}
	}
	if bad {
		return errors.New("the two sets disagree")
	}
	return nil
}

// verdict judges the second set's median against the first's: a spread
// of the first set wider than the bound leaves the metric unresolved;
// otherwise the second may be worse by at most the bound — and, when
// both sets are the same code, better by at most the bound too.
func verdict(worse, spread, bound float64, paired bool) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound, !paired && -worse > bound:
		return "DISAGREE"
	}
	return "agree"
}
