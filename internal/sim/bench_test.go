package sim

import "testing"

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

// BenchmarkNewWorldPrefill measures world construction with the
// steady-state cache warm start, on the worlds of the knn_dense (LA side
// 5, kNN) and window_dense (LA side 14, 45,717 hosts whose window regions
// mostly evict one another) benchmark workloads. The warm start's build
// pass runs on GOMAXPROCS workers, so -cpu 1,2 shows what a second core
// buys and that the serial path pays nothing for the split.
func BenchmarkNewWorldPrefill(b *testing.B) {
	for _, tc := range []struct {
		name string
		side float64
		kind QueryKind
	}{{"knn", 5, KNNQuery}, {"window", 14, WindowQuery}} {
		b.Run(tc.name, func(b *testing.B) {
			p := LACity().Scaled(tc.side).WithDuration(1)
			p.Kind = tc.kind
			p.PrefillQueriesPerHost = 10
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				if _, err := NewWorld(p); err != nil {
					b.Fatal(err)
				}
			}
		})
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
