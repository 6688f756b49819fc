// Package metrics is a stdlib-only metrics layer for the simulator and
// its serving harnesses: counters and gauges, and fixed-bucket log-scale
// histograms with deterministic quantile extraction.
//
// Design constraints (DESIGN.md §10):
//
//   - Counters and gauges hold no state. Each is a read function the
//     registry calls when it snapshots, over a value its owner already
//     keeps (the simulator reads its Stats ledger and its clock), so there
//     is no second copy to keep in step.
//   - Registration may allocate; Histogram.Observe must not. A histogram
//     is a plain struct with a preallocated bucket array; Observe is a
//     binary search plus integer increments.
//   - Everything observed or read is a deterministic quantity (simulated
//     slots, work units, areas) — never wall-clock time — so identical
//     seeds produce byte-identical snapshots, and the zero-knob identity
//     contract of the faults/resilience layers extends to metrics.
//   - A Registry is single-writer: the owning goroutine observes and
//     snapshots without synchronization (parallel sweeps give every World
//     its own registry). Cross-goroutine readers (the -metrics-listen HTTP
//     endpoint) consume immutable published Snapshots via Publish.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// counter is a monotonically increasing event count, read when the
// registry snapshots.
type counter struct {
	help string
	read func() int64
}

// gauge is a value that can move both ways (simulated clock, live host
// count), read when the registry snapshots.
type gauge struct {
	help string
	read func() float64
}

// Registry holds the named instruments of one simulation world (or any
// other single-writer component). A name has one instrument: registering
// a counter or gauge name twice, or a name as a different kind, panics (a
// wiring bug); asking for an existing histogram returns it.
type Registry struct {
	counters   map[string]counter
	gauges     map[string]gauge
	histograms map[string]*Histogram

	// published is the latest immutable snapshot made visible to
	// concurrent readers via Publish/Published.
	published atomic.Pointer[Snapshot]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]counter),
		gauges:     make(map[string]gauge),
		histograms: make(map[string]*Histogram),
	}
}

func (r *Registry) checkName(name, kind string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as counter", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as gauge", name))
	}
	if _, ok := r.histograms[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as histogram", name))
	}
}

// Counter registers a counter under name whose value is read() at each
// snapshot. read must be monotonic; it runs on the owning goroutine.
func (r *Registry) Counter(name, help string, read func() int64) {
	r.checkName(name, "counter")
	r.counters[name] = counter{help: help, read: read}
}

// Gauge registers a gauge under name whose value is read() at each
// snapshot, on the owning goroutine.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.checkName(name, "gauge")
	r.gauges[name] = gauge{help: help, read: read}
}

// Histogram registers (or returns the existing) histogram under name.
// bounds are ascending bucket upper limits (see ExpBuckets); an
// implicit +Inf overflow bucket is appended. unit documents the
// observed quantity ("slots", "work", "sqmi") and is carried into
// snapshots and the text exposition help line.
func (r *Registry) Histogram(name, help, unit string, bounds []float64) *Histogram {
	r.checkName(name, "histogram")
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := newHistogram(name, help, unit, bounds)
	r.histograms[name] = h
	return h
}

// sortedNames returns the keys of m in lexical order — the deterministic
// iteration order of every snapshot and exposition.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Publish captures the current state as an immutable Snapshot and makes
// it visible to concurrent readers (Published, the HTTP handler). Only
// the owning goroutine may call Publish; readers never touch the live
// instruments.
func (r *Registry) Publish() {
	s := r.Snapshot()
	r.published.Store(&s)
}

// Published returns the most recently published snapshot, or nil when
// Publish has never been called.
func (r *Registry) Published() *Snapshot { return r.published.Load() }
