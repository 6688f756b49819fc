package experiments

import (
	"reflect"
	"testing"
)

// tinyOptions is a scale small enough to sweep a full figure in a few
// seconds while still exercising every parameter set and x value.
func tinyOptions() Options {
	return Options{
		SideMiles:      1,
		DurationHours:  0.02,
		TimeStepSec:    15,
		Seed:           42,
		PrefillPerHost: 2,
	}
}

// TestParallelSweepIdentity is the end-to-end determinism gate for the
// sweep engine wiring: the same figure regenerated serially, with an
// explicit worker count, and with the auto (GOMAXPROCS) setting must be
// bit-identical — every Point, every Stats field. One kNN figure and
// one window figure cover both query pipelines.
func TestParallelSweepIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps in -short mode")
	}
	figures := []struct {
		name string
		run  func(Options) Figure
	}{
		{"Fig10-knn", Fig10},
		{"Fig15-window", Fig15},
	}
	for _, f := range figures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			serial := tinyOptions()
			serial.workers = 1
			want := f.run(serial)
			for _, workers := range []int{0, 3} {
				opt := tinyOptions()
				opt.workers = workers
				got := f.run(opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s with %d workers differs from serial", f.name, workers)
				}
			}
		})
	}
}
