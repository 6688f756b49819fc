package metrics

// Snapshot is an immutable, JSON-serializable capture of a registry.
// Instruments appear in lexical name order and every field is a
// deterministic function of the observations, so identical seeds yield
// byte-identical marshaled snapshots (the determinism contract
// TestMetricsDeterminism pins).
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter's state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Bucket is one histogram bucket: the count of observations v with
// prevBound < v <= LE. The overflow bucket carries LE = +Inf and is
// marked by Inf (JSON has no infinity literal).
type Bucket struct {
	LE    float64 `json:"le"`
	Inf   bool    `json:"inf,omitempty"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is one histogram's state, including the derived
// deterministic quantiles the evaluation tables report.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Unit    string   `json:"unit,omitempty"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot captures the registry's current state: every counter and
// gauge is read now. Safe to call from the owning goroutine at any time;
// the result shares no storage with the live instruments.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, name := range sortedNames(r.counters) {
		c := r.counters[name]
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Help: c.help, Value: c.read()})
	}
	for _, name := range sortedNames(r.gauges) {
		g := r.gauges[name]
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Help: g.help, Value: g.read()})
	}
	for _, name := range sortedNames(r.histograms) {
		h := r.histograms[name]
		hs := HistogramSnapshot{
			Name: h.name, Help: h.help, Unit: h.unit,
			Count: h.count, Sum: h.sum,
			Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		}
		hs.Buckets = make([]Bucket, len(h.counts))
		for i, c := range h.counts {
			if i < len(h.bounds) {
				hs.Buckets[i] = Bucket{LE: h.bounds[i], Count: c}
			} else {
				hs.Buckets[i] = Bucket{Inf: true, Count: c}
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// Histogram returns the named histogram snapshot, if present.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Counter returns the named counter snapshot, if present.
func (s Snapshot) Counter(name string) (CounterSnapshot, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterSnapshot{}, false
}

// Gauge returns the named gauge snapshot, if present.
func (s Snapshot) Gauge(name string) (GaugeSnapshot, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeSnapshot{}, false
}
