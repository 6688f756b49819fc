package sim

// Batched-engine acceptance tests: Params.TickWorkers > 1 must be
// byte-identical to the seed's serial query loop — report rows (wall
// clock zeroed), trace streams, metrics snapshots, fault counters, and
// breaker state — across the full armed-knob soak schedule, at every
// worker count. Every schedule runs twice: as drawn (broadcast
// loss armed, exercising the serial-air fallback) and with broadcast
// loss zeroed (exercising the parallel execute phase proper), so both
// regimes of the engine are pinned against the same serial baseline.
// `go test -race` runs these too, which is the data-race check on the
// execute phase.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"lbsq/internal/trace"
)

// batchedWorkerCounts are the parallel configurations pinned against the
// workers=1 serial baseline.
var batchedWorkerCounts = []int{2, 4, 8}

// runTickWorld runs p at the given worker count with every serial
// side-effect surface armed — trace capture, the metrics registry,
// baseline sampling, ground-truth self-checks — and returns the world,
// its stats, the marshaled report row (wall clock zeroed), and the raw
// trace stream.
func runTickWorld(t *testing.T, p Params, workers int) (*World, Stats, []byte, []byte) {
	t.Helper()
	p.Metrics = true
	w, s, tr := runTracedWorld(t, p, workers)
	rep := NewReport(p, s, true, 0)
	snap := w.Metrics().Snapshot()
	rep.Metrics = &snap
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return w, s, js, tr
}

// runTracedWorld is runTickWorld without the report, leaving the Metrics
// knob as the caller set it.
func runTracedWorld(t *testing.T, p Params, workers int) (*World, Stats, []byte) {
	t.Helper()
	p.TickWorkers = workers
	w, err := NewWorld(p)
	if err != nil {
		t.Fatalf("world (workers=%d): %v", workers, err)
	}
	w.SelfCheck = true
	w.CompareBaseline = true
	w.BaselineSampleRate = 0.5 // exercise both branches of the coin
	var trBuf bytes.Buffer
	w.Trace = trace.NewWriter(&trBuf)
	s := w.Run()
	w.Trace.Flush()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatalf("self-check (workers=%d): %v", workers, err)
	}
	return w, s, trBuf.Bytes()
}

// checkTickIdentity pins every batched worker count against the serial
// baseline for one parameter set.
func checkTickIdentity(t *testing.T, p Params) {
	t.Helper()
	base, bs, bRep, bTr := runTickWorld(t, p, 1)
	for _, workers := range batchedWorkerCounts {
		w, s, rep, tr := runTickWorld(t, p, workers)
		if !bytes.Equal(bRep, rep) {
			t.Errorf("workers=%d report diverged from serial:\n%s\nvs\n%s",
				workers, rep, bRep)
		}
		if !bytes.Equal(bTr, tr) {
			t.Errorf("workers=%d trace diverged from serial (%d vs %d bytes)",
				workers, len(tr), len(bTr))
		}
		// Direct Stats comparison catches the unexported fields the report
		// row does not carry.
		if s != bs {
			t.Errorf("workers=%d stats diverged from serial:\n%+v\nvs\n%+v",
				workers, s, bs)
		}
		if w.FaultCounters() != base.FaultCounters() {
			t.Errorf("workers=%d fault counters diverged: %+v vs %+v",
				workers, w.FaultCounters(), base.FaultCounters())
		}
		if (w.Breakers() == nil) != (base.Breakers() == nil) {
			t.Errorf("workers=%d breaker allocation diverged", workers)
		} else if w.Breakers() != nil {
			if w.Breakers().Stats() != base.Breakers().Stats() ||
				w.Breakers().Tracked() != base.Breakers().Tracked() ||
				w.Breakers().Cycle() != base.Breakers().Cycle() {
				t.Errorf("workers=%d breaker state diverged", workers)
			}
		}
	}
}

// TestBatchedTickIdentity sweeps the chaos-soak schedules — faults,
// churn, resilience, byzantine attack with audits, POI updates with IR
// reconciliation, burst fading, blackouts, the degraded-mode planner,
// both query kinds — through the batched engine at every worker count.
func TestBatchedTickIdentity(t *testing.T) {
	schedules := 8
	if testing.Short() {
		schedules = 3
	}
	for schedule := 0; schedule < schedules; schedule++ {
		schedule := schedule
		t.Run("schedule"+strconv.Itoa(schedule), func(t *testing.T) {
			p := soakParams(schedule)
			t.Run("serialAir", func(t *testing.T) { checkTickIdentity(t, p) })
			t.Run("parallel", func(t *testing.T) {
				pc := p
				pc.Faults.BroadcastLoss = 0 // loss-free channel: parallel execute runs
				checkTickIdentity(t, pc)
			})
		})
	}
}

// TestBatchedTickIdentityClean pins the impairment-free configurations
// (no fault profile at all), where the whole batch executes in parallel.
func TestBatchedTickIdentityClean(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			p := LACity().Scaled(1.5).WithDuration(0.1)
			p.Seed = 99
			p.TimeStepSec = 10
			p.Kind = kind
			p.AcceptApproximate = kind == KNNQuery
			checkTickIdentity(t, p)
		})
	}
}

// TestTickWorkersValidate pins the knob's validation contract.
func TestTickWorkersValidate(t *testing.T) {
	p := LACity()
	p.TickWorkers = -1
	if err := p.Validate(); err == nil {
		t.Error("negative TickWorkers validated")
	}
}
