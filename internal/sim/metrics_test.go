package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lbsq/internal/trace"
)

// metricsWorld builds a small world with the observability layer on.
func metricsWorld(t *testing.T, kind QueryKind, seed int64) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = kind
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = kind == KNNQuery
	p.Metrics = true
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsOffIsNil: without the knob, the world carries no registry
// and the report carries no metrics field — the zero-knob identity
// contract's observable half.
func TestMetricsOffIsNil(t *testing.T) {
	w := smallWorld(t, KNNQuery, 7)
	if w.Metrics() != nil {
		t.Fatal("Metrics() non-nil with the knob off")
	}
	stats := w.Run()
	rep := NewReport(w.Params, stats, false, 0)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"metrics"`)) {
		t.Fatalf("metrics key leaked into a metrics-off report: %s", b)
	}
}

// TestMetricsTrajectoryIdentity: enabling the observability layer must
// not perturb the simulation — on every golden world, identical seeds
// yield identical Stats and identical trace events with the knob on and
// off (the per-phase span fields are the only bytes the knob may add to
// a trace).
func TestMetricsTrajectoryIdentity(t *testing.T) {
	for name, p := range goldenWorlds() {
		t.Run(name, func(t *testing.T) {
			on := goldenRunOf(t, name, p)
			_, soff, troff := runTracedWorld(t, p)
			if on.stats != soff {
				t.Errorf("metrics knob perturbed the trajectory:\n%+v\nvs\n%+v", on.stats, soff)
			}
			if !bytes.Equal(stripSpans(t, on.trc), troff) {
				t.Error("metrics knob perturbed the trace beyond its span fields")
			}
		})
	}
}

// stripSpans re-encodes a metrics-on trace without its span fields.
func stripSpans(t *testing.T, tr []byte) []byte {
	t.Helper()
	events, err := trace.Read(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		e.SpanP2PSlots, e.SpanMergeWork, e.SpanVerifyWork = 0, 0, 0
		e.SpanTuneSlots, e.SpanDownloadSlots = 0, 0
		if err := w.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallWorld31 mirrors metricsWorld with the knob off (smallWorld uses a
// different duration, so build the twin explicitly).
func smallWorld31(t *testing.T, kind QueryKind) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = kind
	p.Seed = 31
	p.TimeStepSec = 10
	p.AcceptApproximate = kind == KNNQuery
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsDeterminism: two metrics-enabled runs with identical seeds
// must publish byte-identical snapshots — every observed quantity is a
// simulated value, never wall-clock.
func TestMetricsDeterminism(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		a := metricsWorld(t, kind, 33)
		b := metricsWorld(t, kind, 33)
		a.Run()
		b.Run()
		var ba, bb bytes.Buffer
		if err := a.Metrics().WriteText(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Metrics().WriteText(&bb); err != nil {
			t.Fatal(err)
		}
		if ba.String() != bb.String() {
			t.Fatalf("%v: snapshots diverged under identical seeds", kind)
		}
		if ba.Len() == 0 {
			t.Fatalf("%v: empty exposition", kind)
		}
	}
}

// baseSection reports whether a Stats section's counters are registered
// on every world, armed or not.
func baseSection(section string) bool { return (&World{}).sectionArmed(section) }

// TestMetricsMatchStats: on every golden world, every /metrics counter
// equals the sum of the Stats fields tagged with its name in the same
// report, and the latency and tuning histograms sum to the Stats totals —
// the two observability surfaces describe one ledger. A section registers
// all of its counters or none.
func TestMetricsMatchStats(t *testing.T) {
	for name, p := range goldenWorlds() {
		t.Run(name, func(t *testing.T) {
			rep := goldenReportOf(t, name, p)
			stats, snap := rep.Stats, rep.Metrics
			if stats.Queries == 0 {
				t.Fatal("run counted no queries; golden world too small")
			}

			rows := 0
			registered, declared := map[string]int{}, map[string]int{}
			for i := range statMetrics {
				sm := &statMetrics[i]
				declared[sm.section]++
				got, ok := snap.Counter(sm.name)
				if !ok {
					continue
				}
				registered[sm.section]++
				if want := sm.sum(&stats); got.Value != want {
					t.Errorf("%s = %d, Stats says %d", sm.name, got.Value, want)
				}
			}
			for section, n := range declared {
				if got := registered[section]; got != 0 && got != n {
					t.Errorf("section %s registered %d of its %d counters", section, got, n)
				}
				if baseSection(section) && registered[section] == 0 {
					t.Errorf("base counters of section %s missing", section)
				}
				rows += registered[section]
			}
			if rows != len(snap.Counters) {
				t.Errorf("snapshot carries %d counters, %d of them views of Stats", len(snap.Counters), rows)
			}
			_, crowdOn := snap.Counter("lbsq_overload_crowd_queries_total")
			if _, ok := snap.Gauge("lbsq_overload_governor_engaged"); ok != crowdOn {
				t.Errorf("governor gauge registered = %v, overload counters = %v", ok, crowdOn)
			}

			lat, ok := snap.Histogram("lbsq_query_latency_slots")
			if !ok {
				t.Fatal("latency histogram missing")
			}
			if int64(lat.Sum) != stats.LatencySlots || lat.Count != uint64(stats.Queries) {
				t.Errorf("latency sum/count = %v/%d, Stats says %d/%d",
					lat.Sum, lat.Count, stats.LatencySlots, stats.Queries)
			}
			if tun, _ := snap.Histogram("lbsq_query_tuning_slots"); int64(tun.Sum) != stats.TuningSlots {
				t.Errorf("tuning sum = %v, Stats says %d", tun.Sum, stats.TuningSlots)
			}
			// Every phase histogram observed every counted query.
			for _, ph := range PhaseHistograms() {
				if h, _ := snap.Histogram(ph.Metric()); h.Count != uint64(stats.Queries) {
					t.Errorf("%s count = %d, want %d", ph.Metric(), h.Count, stats.Queries)
				}
			}
			// A re-verification is observed when Stats counts it, warm-up
			// excluded.
			if rv, ok := snap.Histogram("lbsq_continuous_reverify_cost_slots"); ok &&
				(rv.Count != uint64(stats.Reverifies) || int64(rv.Sum) != stats.ContSlots) {
				t.Errorf("reverify cost count/sum = %d/%v, Stats says %d/%d",
					rv.Count, rv.Sum, stats.Reverifies, stats.ContSlots)
			}
		})
	}
}

// TestMetricsUnarmedLayersAbsent: a layer whose knobs are off registers
// nothing — a zero-knob snapshot is the base instruments only, and the
// every-layer-armed world carries every counter Stats declares.
func TestMetricsUnarmedLayersAbsent(t *testing.T) {
	worlds := goldenWorlds()
	layerPrefixes := []string{"lbsq_trust_", "lbsq_consistency_", "lbsq_channel_",
		"lbsq_continuous_", "lbsq_overload_"}
	base := 0
	for _, sm := range statMetrics {
		if baseSection(sm.section) {
			base++
		}
	}
	for _, name := range []string{"knn_zero", "window_zero"} {
		rep := goldenReportOf(t, name, worlds[name])
		if got, want := len(rep.Metrics.Counters), base; got != want {
			t.Errorf("%s: %d counters, want the %d base ones", name, got, want)
		}
		for _, sample := range rep.Metrics.Samples() {
			for _, prefix := range layerPrefixes {
				if strings.HasPrefix(sample.Name, prefix) {
					t.Errorf("%s: zero-knob registry carries %s", name, sample.Name)
				}
			}
		}
	}
	rep := goldenReportOf(t, "armed_knn", worlds["armed_knn"])
	for _, sm := range statMetrics {
		if _, ok := rep.Metrics.Counter(sm.name); !ok {
			t.Errorf("armed_knn: %s not registered", sm.name)
		}
	}
}

// TestTraceSpanFields: metrics-enabled traces carry the per-phase span
// fields; metrics-off traces must not mention them at all (byte-identity
// with the seed trace format).
func TestTraceSpanFields(t *testing.T) {
	var offBuf bytes.Buffer
	off := smallWorld31(t, KNNQuery)
	off.Trace = trace.NewWriter(&offBuf)
	off.Run()
	if err := off.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(offBuf.String(), "span_") {
		t.Fatal("metrics-off trace contains span fields")
	}

	var onBuf bytes.Buffer
	on := metricsWorld(t, KNNQuery, 31)
	on.Trace = trace.NewWriter(&onBuf)
	on.Run()
	if err := on.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(onBuf.String(), "span_merge_work") {
		t.Fatal("metrics-on trace carries no span fields")
	}
	events, err := trace.Read(&onBuf)
	if err != nil {
		t.Fatal(err)
	}
	var sawWork bool
	for _, e := range events {
		if e.SpanMergeWork > 0 || e.SpanVerifyWork > 0 {
			sawWork = true
		}
		if e.Outcome != "broadcast" && (e.SpanTuneSlots != 0 || e.SpanDownloadSlots != 0) {
			t.Fatalf("peer-resolved event carries channel spans: %+v", e)
		}
	}
	if !sawWork {
		t.Fatal("no event recorded merge/verify work")
	}
}

// TestRunTickHook: the tick hook fires once per step and publishing
// snapshots from it does not perturb the run.
func TestRunTickHook(t *testing.T) {
	a := metricsWorld(t, KNNQuery, 37)
	b := metricsWorld(t, KNNQuery, 37)
	var ticks int
	sa := a.RunTick(func() {
		ticks++
		a.Metrics().Publish()
	})
	sb := b.Run()
	if ticks == 0 {
		t.Fatal("tick hook never fired")
	}
	if sa != sb {
		t.Fatalf("tick hook perturbed the run:\n%+v\nvs\n%+v", sa, sb)
	}
	if a.Metrics().Published() == nil {
		t.Fatal("no snapshot published")
	}
}
