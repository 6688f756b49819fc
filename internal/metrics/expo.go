package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// This file implements the Prometheus-style text exposition sink
// (text format version 0.0.4 subset: counters, gauges, histograms) and
// a parser for the same subset, used by the round-trip tests.

// formatFloat renders a sample value deterministically: the shortest
// representation that round-trips (strconv 'g', precision -1).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the snapshot in the Prometheus text exposition
// format. Output is deterministic: instruments in lexical name order,
// shortest-round-trip float formatting.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		if c.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", c.Name, c.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s counter\n", c.Name)
		fmt.Fprintf(bw, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		if g.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", g.Name, g.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", g.Name)
		fmt.Fprintf(bw, "%s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		if h.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", h.Name, h.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s histogram\n", h.Name)
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if !b.Inf {
				le = formatFloat(b.LE)
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", h.Name, le, cum)
		}
		fmt.Fprintf(bw, "%s_sum %s\n", h.Name, formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}
	return bw.Flush()
}

// WriteText renders the registry's current state (owner-goroutine only;
// concurrent readers should go through Publish/Handler).
func (r *Registry) WriteText(w io.Writer) error { return r.Snapshot().WriteText(w) }

// Sample is one parsed exposition line: a metric name, an optional
// `le` label (histogram buckets), and the value.
type Sample struct {
	Name  string
	LE    string // empty for counters/gauges and _sum/_count lines
	Value float64
}

// ParseText parses the subset of the Prometheus text format WriteText
// emits and returns the samples in file order. # comment lines are
// skipped; malformed lines are errors (the round-trip tests depend on
// strictness).
func ParseText(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		le := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: line %d: unbalanced braces", lineNo)
			}
			name = line[:i]
			label := line[i+1 : j]
			const pfx = `le="`
			if !strings.HasPrefix(label, pfx) || !strings.HasSuffix(label, `"`) {
				return nil, fmt.Errorf("metrics: line %d: unsupported label %q", lineNo, label)
			}
			le = label[len(pfx) : len(label)-1]
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("metrics: line %d: want `name value`, got %q", lineNo, sc.Text())
		}
		var v float64
		if fields[1] == "+Inf" {
			v = math.Inf(1)
		} else {
			parsed, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			v = parsed
		}
		out = append(out, Sample{Name: fields[0], LE: le, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// Samples flattens the snapshot into the exact sample list WriteText
// emits (cumulative buckets included) — the reference side of the
// exposition round-trip tests.
func (s Snapshot) Samples() []Sample {
	var out []Sample
	for _, c := range s.Counters {
		out = append(out, Sample{Name: c.Name, Value: float64(c.Value)})
	}
	for _, g := range s.Gauges {
		out = append(out, Sample{Name: g.Name, Value: g.Value})
	}
	for _, h := range s.Histograms {
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if !b.Inf {
				le = formatFloat(b.LE)
			}
			out = append(out, Sample{Name: h.Name + "_bucket", LE: le, Value: float64(cum)})
		}
		out = append(out, Sample{Name: h.Name + "_sum", Value: h.Sum})
		out = append(out, Sample{Name: h.Name + "_count", Value: float64(h.Count)})
	}
	return out
}

// Handler returns an http.Handler serving the registry's most recently
// published snapshot as text exposition — the `-metrics-listen`
// endpoint. The live instruments are never touched, so the simulation
// goroutine keeps observing without synchronization; it just has to
// call Publish whenever it wants the endpoint to advance.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Published()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if s == nil {
			fmt.Fprintln(w, "# no snapshot published yet")
			return
		}
		_ = s.WriteText(w)
	})
}
