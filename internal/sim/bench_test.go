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

// BenchmarkWorldBuildWithPrefill measures world construction including
// the steady-state cache warm start.
func BenchmarkWorldBuildWithPrefill(b *testing.B) {
	p := LACity().Scaled(3).WithDuration(1)
	p.Kind = KNNQuery
	p.PrefillQueriesPerHost = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := NewWorld(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowWorldBuildWithPrefill measures the build of a dense
// window world, the shape of the window_dense benchmark workload: 45,717
// hosts whose prefilled regions mostly evict one another.
func BenchmarkWindowWorldBuildWithPrefill(b *testing.B) {
	p := LACity().Scaled(14).WithDuration(1)
	p.Kind = WindowQuery
	p.PrefillQueriesPerHost = 10
	b.ReportAllocs()
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
