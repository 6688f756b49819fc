package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestCounterGaugeBasics: a counter or gauge holds no value of its own —
// every snapshot reports what its read returns at that moment.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	var n int64
	var v float64
	r.Counter("q_total", "queries", func() int64 { return n })
	r.Gauge("now_sec", "sim clock", func() float64 { return v })
	for _, step := range []struct {
		n int64
		v float64
	}{{0, 0}, {5, 12.5}, {9, 10}} {
		n, v = step.n, step.v
		s := r.Snapshot()
		if c, ok := s.Counter("q_total"); !ok || c.Value != n || c.Help != "queries" {
			t.Fatalf("counter snapshot %+v, want value %d", c, n)
		}
		if g, ok := s.Gauge("now_sec"); !ok || g.Value != v || g.Help != "sim clock" {
			t.Fatalf("gauge snapshot %+v, want value %v", g, v)
		}
	}
	// A name has one read: registering it again panics.
	mustPanic(t, "second counter read", func() { r.Counter("q_total", "", func() int64 { return 0 }) })
	mustPanic(t, "second gauge read", func() { r.Gauge("now_sec", "", func() float64 { return 0 }) })
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", func() int64 { return 0 })
	r.Gauge("g", "", func() float64 { return 0 })
	r.Histogram("h", "", "slots", SlotBuckets())
	mustPanic(t, "counter name as gauge", func() { r.Gauge("c", "", func() float64 { return 0 }) })
	mustPanic(t, "counter name as histogram", func() { r.Histogram("c", "", "slots", SlotBuckets()) })
	mustPanic(t, "gauge name as counter", func() { r.Counter("g", "", func() int64 { return 0 }) })
	mustPanic(t, "histogram name as counter", func() { r.Counter("h", "", func() int64 { return 0 }) })
	mustPanic(t, "histogram name as gauge", func() { r.Gauge("h", "", func() float64 { return 0 }) })
	if r.Histogram("h", "", "slots", SlotBuckets()) != r.histograms["h"] {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestEmptyNamePanics(t *testing.T) {
	mustPanic(t, "empty metric name", func() { NewRegistry().Counter("", "", func() int64 { return 0 }) })
}

// source is the state a deterministic workload keeps; the registry's
// counter and gauge read it.
type source struct {
	queries int64
	now     float64
}

// fillRegistry registers reads of a fresh source, drives the workload and
// returns the source.
func fillRegistry(r *Registry) *source {
	src := &source{}
	r.Counter("queries_total", "total queries", func() int64 { return src.queries })
	r.Gauge("sim_now_seconds", "simulated clock", func() float64 { return src.now })
	h := r.Histogram("latency_slots", "per-query latency", "slots", SlotBuckets())
	a := r.Histogram("known_area_sqmi", "cached region area", "sqmi", AreaBuckets())
	for i := 0; i < 1000; i++ {
		src.queries++
		src.now = float64(i) * 5
		h.ObserveInt(int64((i * 37) % 4096))
		a.Observe(float64(i%17) * 0.31)
	}
	return src
}

// TestSnapshotDeterminism pins the byte-identical-snapshot contract:
// two registries fed the same observation stream marshal to identical
// JSON and identical text expositions.
func TestSnapshotDeterminism(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	fillRegistry(r1)
	fillRegistry(r2)
	j1, err := json.Marshal(r1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON differs:\n%s\n%s", j1, j2)
	}
	var t1, t2 bytes.Buffer
	if err := r1.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatalf("text exposition differs:\n%s\n%s", t1.String(), t2.String())
	}
}

func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry()
	src := fillRegistry(r)
	s := r.Snapshot()
	if c, ok := s.Counter("queries_total"); !ok || c.Value != 1000 {
		t.Fatalf("counter lookup: %+v ok=%v", c, ok)
	}
	if g, ok := s.Gauge("sim_now_seconds"); !ok || g.Value != 999*5 {
		t.Fatalf("gauge lookup: %+v ok=%v", g, ok)
	}
	if h, ok := s.Histogram("latency_slots"); !ok || h.Count != 1000 {
		t.Fatalf("histogram lookup: %+v ok=%v", h, ok)
	}
	if _, ok := s.Histogram("nope"); ok {
		t.Fatal("lookup of absent histogram succeeded")
	}
	if _, ok := s.Counter("nope"); ok {
		t.Fatal("lookup of absent counter succeeded")
	}
	if _, ok := s.Gauge("nope"); ok {
		t.Fatal("lookup of absent gauge succeeded")
	}
	// The next snapshot reads the source as it is then; the one taken
	// keeps what it read.
	src.queries, src.now = 1500, 7
	next := r.Snapshot()
	if c, _ := next.Counter("queries_total"); c.Value != 1500 {
		t.Fatalf("counter read %d after the source moved, want 1500", c.Value)
	}
	if g, _ := next.Gauge("sim_now_seconds"); g.Value != 7 {
		t.Fatalf("gauge read %v after the source moved, want 7", g.Value)
	}
	if c, _ := s.Counter("queries_total"); c.Value != 1000 {
		t.Fatalf("earlier snapshot moved with its source: %d", c.Value)
	}
}

// TestPublishSnapshotIsolation: a published snapshot does not change when
// the source its counters and gauges read changes later.
func TestPublishSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	var n int64 = 3
	v := 1.5
	r.Counter("c", "", func() int64 { return n })
	r.Gauge("g", "", func() float64 { return v })
	if r.Published() != nil {
		t.Fatal("published snapshot before any Publish")
	}
	r.Publish()
	s := r.Published()
	if s == nil {
		t.Fatal("nil published snapshot")
	}
	n, v = 10, 4 // must not leak into the published snapshot
	if got, _ := s.Counter("c"); got.Value != 3 {
		t.Fatalf("published counter %d, want 3 (immutability broken)", got.Value)
	}
	if got, _ := s.Gauge("g"); got.Value != 1.5 {
		t.Fatalf("published gauge %v, want 1.5 (immutability broken)", got.Value)
	}
	r.Publish()
	if got, _ := r.Published().Counter("c"); got.Value != 10 {
		t.Fatalf("republished counter %d, want 10", got.Value)
	}
	if got, _ := r.Published().Gauge("g"); got.Value != 4 {
		t.Fatalf("republished gauge %v, want 4", got.Value)
	}
}
