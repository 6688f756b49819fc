package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies a span; spanNames has the text the trace file and
// the replay metrics carry.
type spanName uint8

const (
	// Harness spans around the real program.
	spRun spanName = iota
	spSetup
	spWarmup
	spTick
	// Structure of the layer replay.
	spReplay
	spReplayTick
	spReplayQuery
	// One per exported call on the replayed path …
	spMobilityStep
	spP2PUpdate
	spNeighbors
	spShare
	spSBNN
	spSBWQ
	spInsert
	// … and the shadow spans, re-issued on the same inputs and kept off
	// the replayed path's total.
	spMVRAdd
	spBoundary
	spCircleArea
	spOnAir
	spWire
	spTrust
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "setup", "warmup", "tick",
	"replay", "replay.tick", "replay.query",
	"replay.mobility.step", "replay.p2p.update", "replay.p2p.neighbors",
	"replay.cache.share", "replay.core.sbnn", "replay.core.sbwq",
	"replay.cache.insert",
	"replay.geom.mvr_add", "replay.geom.boundary", "replay.geom.circle_area",
	"replay.broadcast.onair", "replay.wire.roundtrip", "replay.trust.screen",
}

// perTick reports whether the span is recorded once per tick over all
// hosts (and reported per host).
func (n spanName) perTick() bool { return n == spMobilityStep || n == spP2PUpdate }

// span is one traced interval: a name, a start and an end on the
// recorder's clock, the span that caused it, and the replayed query it
// belongs to (-1 for harness and per-tick spans).
type span struct {
	start, end int64
	parent     int32
	query      int32
	name       spanName
}

// recorder keeps every span of a traced run in memory until the run
// ends. A nil recorder records nothing, so the timed runs share the code
// path of the traced run.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// now is the recorder clock: nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its index (-1 on a nil
// recorder).
func (r *recorder) add(name spanName, start, end int64, parent, query int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{start: start, end: end,
		parent: int32(parent), query: int32(query), name: name})
	return len(r.spans) - 1
}

// open records a span whose end is not known yet; close ends it.
func (r *recorder) open(name spanName, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(name, r.now(), 0, parent, -1)
}

func (r *recorder) close(i int) {
	if r != nil && i >= 0 {
		r.spans[i].end = r.now()
	}
}

// traceFileQueries caps how many replayed queries' spans the trace file
// carries. Every span is kept in memory and counted in the metrics; the
// file is for reading one query's path, not for statistics.
const traceFileQueries = 2000

// traceDoc is the header of trace_<workload>.json; the spans follow it
// in the same object.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      envStamp           `json:"env"`
	Detail   detail             `json:"detail"`
	Metrics  map[string]float64 `json:"metrics"`
}

// writeTrace writes the spans as
// {"workload":…, …, "spans":[{"name","start_ns","end_ns","parent","query"},…],
// "spans_total":N}. Spans are written in recording order up to the first
// one of replayed query traceFileQueries, so every parent index in the
// file points inside the file.
func writeTrace(dir string, doc traceDoc, rec *recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+doc.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)

	head, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	w.Write(head[:len(head)-1]) // reopen the object to append the spans
	w.WriteString(`,"spans":[`)
	written := 0
	for _, s := range rec.spans {
		if s.query >= traceFileQueries {
			break
		}
		if written > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"query\":%d}",
			spanNames[s.name], s.start, s.end, s.parent, s.query)
		written++
	}
	fmt.Fprintf(w, "\n],\"spans_written\":%d,\"spans_total\":%d}\n", written, len(rec.spans))
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
