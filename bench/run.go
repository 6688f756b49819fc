package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lbsq/internal/metrics"
	"lbsq/internal/sim"
)

// runConfig is one run: one workload, one seed, one process.
type runConfig struct {
	wl      workload
	seed    int64
	seconds int
	quick   bool
	trace   bool
	outDir  string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: whether the outputs were
// correct, how many queries were attempted and failed, and the metrics —
// the end-to-end ones of a timed run or the per-layer ones of a traced
// run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line before the result: what a set needs beyond the
// metrics, and what a reader wants beside them.
type detail struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Replicas  int     `json:"replicas"`
	Hosts     int     `json:"hosts"`
	Queries   int     `json:"queries"`
	Ticks     int     `json:"ticks"`
	TickMaxMs float64 `json:"tick_max_ms"`
	// QueriesPerSec is 1e6 / host_us_per_query.
	QueriesPerSec float64 `json:"queries_per_s"`
	// WallUsPerQuery is this run's timed wall time per query; on a traced
	// run it is what tracing overhead is measured from.
	WallUsPerQuery float64 `json:"wall_us_per_query"`
	// VmHWMMB is the process's resident high-water mark after the timed
	// worlds (0 where /proc is not there to ask). Not a metric: on the
	// allocation-heavy workloads it follows the collector's pacing, not
	// the program (19 % spread across seeds on knn_byzantine).
	VmHWMMB float64 `json:"vm_hwm_mb"`
	// SimDigest is the SHA-256 of the replicas' final Stats JSON: equal
	// digests mean every simulated statistic is identical.
	SimDigest string `json:"sim_digest"`
	// Problems lists every failed output check; empty on a correct run.
	Problems []string `json:"problems,omitempty"`

	// Traced runs only.
	CPUSamples  int     `json:"cpu_samples,omitempty"`
	CPUSumRatio float64 `json:"cpu_sum_ratio,omitempty"` // Σcpu.* / wall
	// CPUUnderPct is, per layer, the share of CPU samples with a frame of
	// the layer anywhere on the stack: the time spent under it, callees
	// in other layers included (the cpu.* metrics charge each sample to
	// its innermost layer only).
	CPUUnderPct map[string]float64 `json:"cpu_under_pct,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	// ReplaySharedPct is the layer replay's shared share, beside the
	// real run's, which it must stay within replayTolerancePts of.
	ReplaySharedPct float64 `json:"replay_shared_pct,omitempty"`
	RealSharedPct   float64 `json:"real_shared_pct,omitempty"`
}

// pass is one world built, warmed up and stepped through its counted
// window.
type pass struct {
	setup   time.Duration
	wall    time.Duration // the timed window
	tickMs  []float64     // host time of every World.Step of the window
	mallocs uint64
	bytes   uint64
	// liveHeap is the Go heap still reachable when the window ends: the
	// world and its caches, measured after a forced collection.
	liveHeap uint64
	hosts    int
	// window is the Stats of the timed window alone (final minus the
	// snapshot taken as warm-up ended); final is what the digest covers.
	window sim.Stats
	final  sim.Stats
	digest string
	// selfCheck is the world's first ground-truth mismatch, if it was
	// asked to check.
	selfCheck error
	profile   []byte            // CPU profile of the timed window (traced)
	snapshot  *metrics.Snapshot // metrics registry at the end (traced)
}

type passOptions struct {
	selfCheck bool
	profile   bool
	rec       *recorder
}

// cpuProfileHz is the sampling rate of the traced run. The default
// 100 Hz gives a run's ~8 s of timed windows 800 samples, too few to
// split 15 ways; 250 Hz is the most a CONFIG_HZ=250 kernel delivers
// (at 500 Hz the sizing box dropped half the samples).
const cpuProfileHz = 250

// runPass builds the world for p (timed as set-up), steps it untimed
// through the warm-up, then times every World.Step of the counted
// window. The queries of the window are exactly Stats().Queries.
func runPass(p sim.Params, opt passOptions) (pass, error) {
	var ps pass
	rec := opt.rec
	runtime.GC() // each world starts from a collected heap

	root := rec.open(spRun, -1)
	sp := rec.open(spSetup, root)
	t0 := time.Now()
	w, err := sim.NewWorld(p)
	ps.setup = time.Since(t0)
	rec.close(sp)
	if err != nil {
		return ps, err
	}
	w.SelfCheck = opt.selfCheck
	ps.hosts = w.Params.MHNumber

	dt := w.Params.TimeStepSec
	duration := w.Params.DurationHours * 3600
	warmup := duration * w.Params.WarmupFrac
	sp = rec.open(spWarmup, root)
	for w.Now()+dt < warmup {
		w.Step(dt)
	}
	rec.close(sp)
	before := w.Stats()
	if before.Queries != 0 {
		return ps, fmt.Errorf("warm-up counted %d queries; the timed window no longer matches the simulator's", before.Queries)
	}

	var prof bytes.Buffer
	if opt.profile {
		// StartCPUProfile insists on 100 Hz; setting the rate first makes
		// its own call a logged no-op and keeps ours.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return ps, err
		}
	}
	// Sized up front so the timed loop itself allocates nothing.
	nTicks := int((duration-w.Now())/dt) + 2
	tickStart, tickEnd := make([]int64, 0, nTicks), make([]int64, 0, nTicks)
	epoch := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	for w.Now() < duration {
		s := time.Since(epoch)
		w.Step(dt)
		e := time.Since(epoch)
		tickStart = append(tickStart, int64(s))
		tickEnd = append(tickEnd, int64(e))
	}
	ps.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if opt.profile {
		pprof.StopCPUProfile()
		ps.profile = prof.Bytes()
	}
	rec.close(root)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ps.liveHeap = live.HeapAlloc

	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.bytes = m1.TotalAlloc - m0.TotalAlloc
	ps.tickMs = make([]float64, len(tickStart))
	for i := range tickStart {
		ps.tickMs[i] = float64(tickEnd[i]-tickStart[i]) / 1e6
	}
	if rec != nil {
		base := int64(epoch.Sub(rec.epoch))
		for i := range tickStart {
			rec.add(spTick, base+tickStart[i], base+tickEnd[i], root, -1)
		}
	}

	ps.final = w.Stats()
	// Most of Stats is gated on the warm-up already; the P2P, fault,
	// breaker, trust and consistency tallies run from t=0, and the
	// per-layer counts want the timed window alone.
	ps.window = statsAdd(ps.final, before, -1)
	ps.selfCheck = w.SelfCheckErr()
	js, err := json.Marshal(ps.final)
	if err != nil {
		return ps, err
	}
	sum := sha256.Sum256(js)
	ps.digest = hex.EncodeToString(sum[:])
	if reg := w.Metrics(); reg != nil {
		snap := reg.Snapshot()
		ps.snapshot = &snap
	}
	return ps, nil
}

// statsAdd returns a + sign·b over every exported numeric field of Stats.
func statsAdd(a, b sim.Stats, sign int64) sim.Stats {
	out := a
	va, vb := reflect.ValueOf(&out).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		if !f.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + sign*vb.Field(i).Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + float64(sign)*vb.Field(i).Float())
		}
	}
	return out
}

// run executes one run and returns its result and detail.
func run(cfg runConfig) (result, detail, error) {
	n := cfg.wl.replicas(cfg.seconds, cfg.quick)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	passes := make([]pass, 0, n)
	for r := 0; r < n; r++ {
		p := cfg.wl.params(cfg.seed, r, cfg.quick)
		p.Metrics = cfg.trace
		ps, err := runPass(p, passOptions{selfCheck: cfg.trace, profile: cfg.trace, rec: rec})
		if err != nil {
			return result{}, detail{}, fmt.Errorf("%s replica %d: %w", cfg.wl.Name, r, err)
		}
		passes = append(passes, ps)
	}
	det := detail{Workload: cfg.wl.Name, Seed: cfg.seed, Replicas: n, Hosts: passes[0].hosts,
		VmHWMMB: vmHWMMB()}
	pool := poolPasses(passes)
	det.Queries, det.Ticks = pool.window.Queries, len(pool.tickMs)
	det.TickMaxMs = pool.tickMs[len(pool.tickMs)-1]
	det.WallUsPerQuery = ratio(pool.wallUs, float64(pool.window.Queries))
	det.QueriesPerSec = ratio(1e6, det.WallUsPerQuery)
	det.SimDigest = pool.digest
	det.Problems = pool.problems

	res := result{Attempted: pool.window.Queries, Failed: pool.window.Unanswered,
		Metrics: map[string]metricValue{}}
	if cfg.trace {
		values, err := traceMetrics(cfg, passes, pool, rec, &det)
		if err != nil {
			return result{}, detail{}, err
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	} else {
		// The timed worlds ran unchecked; replica 0 runs once more with
		// the simulator's ground-truth self-check on, and must reproduce
		// the timed replica's statistics bit for bit.
		p := cfg.wl.params(cfg.seed, 0, cfg.quick)
		check, err := runPass(p, passOptions{selfCheck: true})
		if err != nil {
			return result{}, detail{}, fmt.Errorf("%s check pass: %w", cfg.wl.Name, err)
		}
		if check.selfCheck != nil {
			det.Problems = append(det.Problems, "self-check: "+check.selfCheck.Error())
		}
		if check.digest != passes[0].digest {
			det.Problems = append(det.Problems, "replica 0 did not repeat: the checked re-run's Stats differ from the timed run's")
		}
		values := pool.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	}
	res.Correct = len(det.Problems) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res, det, nil
}

// pooled is the replicas of one run taken together.
type pooled struct {
	window   sim.Stats // summed over replicas
	wallUs   float64
	mallocs  float64
	bytes    float64
	liveHeap float64   // the largest world's
	setups   []float64 // seconds, ascending
	tickMs   []float64 // ascending
	digest   string
	problems []string
}

func poolPasses(passes []pass) pooled {
	var pl pooled
	h := sha256.New()
	for i, ps := range passes {
		pl.window = statsAdd(pl.window, ps.window, +1)
		pl.wallUs += float64(ps.wall) / 1e3
		pl.mallocs += float64(ps.mallocs)
		pl.bytes += float64(ps.bytes)
		pl.liveHeap = math.Max(pl.liveHeap, float64(ps.liveHeap))
		pl.setups = append(pl.setups, ps.setup.Seconds())
		pl.tickMs = append(pl.tickMs, ps.tickMs...)
		h.Write([]byte(ps.digest))
		if ps.selfCheck != nil {
			pl.problems = append(pl.problems, fmt.Sprintf("replica %d self-check: %v", i, ps.selfCheck))
		}
		s := ps.window
		if got := s.Verified + s.Approximate + s.Broadcast + s.Degraded + s.Unanswered; got != s.Queries {
			pl.problems = append(pl.problems, fmt.Sprintf("replica %d: outcomes add up to %d of %d queries", i, got, s.Queries))
		}
		if s.Queries == 0 {
			pl.problems = append(pl.problems, fmt.Sprintf("replica %d counted no queries", i))
		}
	}
	pl.setups = sortedCopy(pl.setups)
	pl.tickMs = sortedCopy(pl.tickMs)
	pl.digest = hex.EncodeToString(h.Sum(nil))
	return pl
}

// endToEnd computes the end-to-end metrics of a timed run.
func (pl pooled) endToEnd() map[string]float64 {
	q := float64(pl.window.Queries)
	s := pl.window
	return map[string]float64{
		"setup_s":                 median(pl.setups),
		"host_us_per_query":       ratio(pl.wallUs, q),
		"tick_ms_p50":             percentile(pl.tickMs, 0.50),
		"tick_ms_p90":             percentile(pl.tickMs, 0.90),
		"allocs_per_query":        ratio(pl.mallocs, q),
		"alloc_kb_per_query":      ratio(pl.bytes/1024, q),
		"live_heap_mb":            pl.liveHeap / (1 << 20),
		"shared_pct":              s.SharedPct(),
		"latency_slots_per_query": s.MeanSystemLatencySlots(),
		"peer_kb_per_query":       s.AvgPeerBytes() / 1024,
	}
}

// vmHWMMB is the process's resident high-water mark (VmHWM), or 0 where
// /proc/self/status is not there to ask.
func vmHWMMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed line
				return kb / 1024
			}
		}
	}
	return 0
}
