package sim

import (
	"strconv"
	"testing"
)

// BenchmarkWorldStep measures one simulation step (movement + query
// processing) on a scaled LA City world.
func BenchmarkWorldStep(b *testing.B) {
	p := LACity().Scaled(3).WithDuration(1)
	p.Kind = KNNQuery
	p.Seed = 1
	p.AcceptApproximate = true
	p.PrefillQueriesPerHost = 10
	w, err := NewWorld(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(10)
	}
}

// BenchmarkWorldBuildWithPrefill measures world construction including
// the steady-state cache warm start.
func BenchmarkWorldBuildWithPrefill(b *testing.B) {
	p := LACity().Scaled(3).WithDuration(1)
	p.Kind = KNNQuery
	p.PrefillQueriesPerHost = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := NewWorld(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowWorldStep measures a window-query workload step.
func BenchmarkWindowWorldStep(b *testing.B) {
	p := LACity().Scaled(3).WithDuration(1)
	p.Kind = WindowQuery
	p.Seed = 2
	p.PrefillQueriesPerHost = 10
	w, err := NewWorld(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(10)
	}
}

// BenchmarkTickWorkers measures what the batched tick engine (DESIGN.md
// §14) buys at 1, 2 and 4 workers; read the speed-up off the ns/op
// column against the GOMAXPROCS suffix go test prints. The world is a
// 4-mile LA one with warm caches, whose 10-second ticks carry ~40
// queries each — real batches, so the rows measure what several workers
// buy, not what dispatching near-empty batches costs. One op is one full
// world run, set-up untimed: World.Step cost grows with simulated time
// as caches fill, so a bounded, identical workload per op keeps the rows
// comparable. That every worker count produces the serial run's bytes is
// TestBatchedTickIdentity's job, not this one's.
func BenchmarkTickWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			p := LACity().Scaled(4).WithDuration(0.1)
			p.TimeStepSec = 10
			p.Seed = 42
			p.PrefillQueriesPerHost = 10
			p.TickWorkers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := NewWorld(p)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				w.Run()
			}
		})
	}
}
