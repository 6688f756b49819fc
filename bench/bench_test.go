package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/sim"
)

func loadBenchmarkJSON(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the harness
// registry in step: same workloads, same metrics, same units, directions
// and bounds, all inside the schema's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the replica counts are sized for %d", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, wl := range workloads {
		jw := b.Workloads[i]
		if jw.Name != wl.Name || jw.Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), registry %q (%q)", i, jw.Name, jw.Why, wl.Name, wl.Why)
		}
		if !nameRE.MatchString(wl.Name) || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", wl.Name)
		}
		if seen[wl.Name] {
			t.Errorf("name %q used twice", wl.Name)
		}
		seen[wl.Name] = true
	}

	check := func(kind string, js []manifestMetric, defs []metricDef, max int, bounded bool) {
		if len(defs) > max || len(defs) == 0 {
			t.Errorf("%d %s metrics, want 1..%d", len(defs), kind, max)
		}
		if len(js) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the registry", len(js), kind, len(defs))
		}
		for i, m := range defs {
			j := js[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, registry %+v", kind, i, j, m)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q (%q) breaks the name or unit rules", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q has direction %q", kind, m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("name %q used twice", m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (j.Bound == nil || *j.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the registry (want equal, in (0, 0.25])", kind, m.Name, j.Bound, m.Bound)
			case !bounded && (j.Bound != nil || m.Bound != 0):
				t.Errorf("%s %q carries a bound", kind, m.Name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, 16, true)
	check("per-layer", b.PerLayer, perLayer, 128, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	if len(perLayer) != 82 {
		t.Errorf("%d per-layer metrics, want 15 cpu + 28 count + 39 replay = 82", len(perLayer))
	}
}

func TestRaceBuildRefused(t *testing.T) {
	if err := checkBuild(true); !errors.Is(err, errRaceBuild) {
		t.Errorf("checkBuild(true) = %v, want errRaceBuild", err)
	}
	if err := checkBuild(false); err != nil {
		t.Errorf("checkBuild(false) = %v", err)
	}
	if raceEnabled {
		if code := realMain([]string{"-workload", "knn_dense", "-quick"}); code == 0 {
			t.Error("a -race build ran a workload")
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "w", "--trace", "0", "--seed", "1", "-trace", "-quick", "--trace", "1"})
	want := []string{"--workload", "w", "--trace=0", "--seed", "1", "-trace", "-quick", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins the quartile rule to
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q3 != 3.5 { // exclusive method extrapolates at n=2
		t.Errorf("quartiles(1,3) = %v %v, want 0.5 3.5", q1, q3)
	}
	s := summarize([]float64{30, 10, 20})
	if s.N != 3 || s.Median != 20 || s.Q1 != 10 || s.Q3 != 30 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		paired               bool
		want                 string
	}{
		{0.02, 0.01, 0.10, false, "agree"},
		{0.12, 0.01, 0.10, false, "DISAGREE"},
		{-0.12, 0.01, 0.10, false, "DISAGREE"}, // same code must not be better either
		{-0.12, 0.01, 0.10, true, "agree"},     // a change may be
		{0.12, 0.20, 0.10, true, "unresolved"},
	} {
		if got := verdict(c.worse, c.spread, c.bound, c.paired); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c, got, c.want)
		}
	}
}

func TestReplicaInputs(t *testing.T) {
	for _, wl := range workloads {
		if got := wl.replicas(refSeconds, false); got != wl.Replicas {
			t.Errorf("%s: %d replicas at the reference length, want %d", wl.Name, got, wl.Replicas)
		}
		if got := wl.replicas(1, false); got < 1 {
			t.Errorf("%s: %d replicas for a 1 s run", wl.Name, got)
		}
		a, b := wl.params(42, 0, false), wl.params(42, 0, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", wl.Name)
		}
		if wl.params(42, 1, false).Seed == a.Seed || wl.params(43, 0, false).Seed == a.Seed {
			t.Errorf("%s: replicas or seeds share a world seed", wl.Name)
		}
		full := wl.params(42, 0, false)
		ticks := full.DurationHours * 3600 / 5 * 0.7
		if ticks < 100 {
			t.Errorf("%s: %.0f timed ticks per world, want at least 100", wl.Name, ticks)
		}
	}
}

// TestQuickRuns runs every workload shrunk, timed and traced: outputs
// check out, every declared metric is reported, and the traced run's
// digest equals the timed run's — SelfCheck, Params.Metrics and the CPU
// profile leave the simulated statistics alone.
func TestQuickRuns(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		cfg := runConfig{wl: wl, seed: 42, seconds: refSeconds, quick: true, outDir: dir}
		res, det, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", wl.Name, res.Correct, res.Attempted, res.Failed, det.Problems)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", wl.Name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v, want a positive number in %s", wl.Name, m.Name, v, m.Unit)
			}
		}

		cfg.trace = true
		tres, tdet, err := run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.Name, err)
		}
		if !tres.Correct {
			t.Errorf("%s traced: problems %v", wl.Name, tdet.Problems)
		}
		if tdet.SimDigest != det.SimDigest {
			t.Errorf("%s: traced digest %.12s, timed %.12s: SelfCheck/Metrics changed the simulated statistics", wl.Name, tdet.SimDigest, det.SimDigest)
		}
		if len(tres.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", wl.Name, len(tres.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := tres.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s traced: %s = %+v", wl.Name, m.Name, v)
			}
		}
		if wl.ZeroKnob {
			kind := "replay.core.sbnn"
			if wl.Name == "window_dense" {
				kind = "replay.core.sbwq"
			}
			if tres.Metrics[kind+".calls_per_query"].Value != 1 || !(tres.Metrics[kind+".ns_per_call"].Value > 0) {
				t.Errorf("%s: replay span %s not measured: %+v", wl.Name, kind, tres.Metrics[kind+".calls_per_query"])
			}
			if tres.Metrics["cpu.trust.us_per_query"].Value != 0 {
				t.Errorf("%s: trust CPU on a zero-knob workload", wl.Name)
			}
		}
		checkTraceFile(t, tdet.TraceFile)
	}
}

// checkTraceFile reads a span file back: valid JSON, every parent index
// inside the file, every span ends no earlier than it starts.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []struct {
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
			Query   int    `json:"query"`
		} `json:"spans"`
		Written int `json:"spans_written"`
		Total   int `json:"spans_total"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if doc.Written != len(doc.Spans) || doc.Total < doc.Written || doc.Written == 0 {
		t.Errorf("%s: %d spans, header says %d written of %d", path, len(doc.Spans), doc.Written, doc.Total)
	}
	names := map[string]bool{}
	for i, s := range doc.Spans {
		names[s.Name] = true
		if s.Parent >= i || s.Parent < -1 || s.EndNs < s.StartNs {
			t.Fatalf("%s: span %d %+v is malformed", path, i, s)
		}
	}
	for _, want := range []string{"run", "setup", "warmup", "tick"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

// TestDigestIgnoresObservation is the determinism gate's premise, checked
// knob by knob on the two workloads the issue names.
func TestDigestIgnoresObservation(t *testing.T) {
	for _, name := range []string{"knn_sparse", "knn_byzantine"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p := wl.params(7, 0, true)
		plain, err := runPass(p, passOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checked, err := runPass(p, passOptions{selfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		p.Metrics = true
		observed, err := runPass(p, passOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if checked.selfCheck != nil {
			t.Errorf("%s: self-check: %v", name, checked.selfCheck)
		}
		if plain.digest != checked.digest || plain.digest != observed.digest {
			t.Errorf("%s: digests differ: plain %.12s, SelfCheck %.12s, Metrics %.12s", name, plain.digest, checked.digest, observed.digest)
		}
		if other, _ := runPass(wl.params(8, 0, true), passOptions{}); other.digest == plain.digest {
			t.Errorf("%s: another seed gave the same digest", name)
		}
	}
}

// TestReplayValidityTrips breaks one answer on purpose: the replay must
// notice, and must pass untouched.
func TestReplayValidityTrips(t *testing.T) {
	for _, name := range []string{"knn_dense", "window_dense"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.NewWorld(wl.params(42, 0, true))
		if err != nil {
			t.Fatal(err)
		}
		real := w.Run().SharedPct()

		rp, err := newReplayer(w.Params, w.Database(), w.Schedule(), newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		out := rp.run()
		if err := out.validate(real); err != nil {
			t.Errorf("%s: honest replay rejected: %v", name, err)
		}
		if out.Checked == 0 {
			t.Errorf("%s: replay checked no answers", name)
		}
		if err := out.validate(real + 2*replayTolerancePts); err == nil {
			t.Errorf("%s: replay accepted a shared_pct %v points off", name, 2*replayTolerancePts)
		}

		rp, err = newReplayer(w.Params, w.Database(), w.Schedule(), newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		broken := 0
		rp.tamper = func(pois []broadcast.POI) []broadcast.POI {
			if len(pois) == 0 || broken > 0 {
				return pois
			}
			broken++
			return pois[1:] // lose the nearest answer once
		}
		out = rp.run()
		if err := out.validate(real); err == nil || out.Mismatches != 1 {
			t.Errorf("%s: broken answer went unnoticed (mismatches=%d, err=%v)", name, out.Mismatches, err)
		}
	}
}
