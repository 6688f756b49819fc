//go:build !race

// Steady-state allocation assertion for the buffer-reuse neighbor
// lookup. Excluded under the race detector, which instruments
// allocations and breaks AllocsPerRun counts.

package p2p

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// TestAppendNeighborsZeroAllocs pins the zero-allocation contract of
// the warm single-hop lookup — the per-query path of every simulated
// host — and of a whole tick of the grid, moves plus the lookups after
// them. The reflect.DeepEqual comparison in append_test.go guarantees
// it is the same answer; this guarantees it is free.
func TestAppendNeighborsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := buildNet(t, rng, 1000)
	q := geom.Pt(500, 500)
	buf := net.AppendNeighbors(nil, q, 150, -1) // warm to capacity
	allocs := testing.AllocsPerRun(100, func() {
		buf = net.AppendNeighbors(buf[:0], q, 150, -1)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendNeighbors allocates %.1f times per run, want 0", allocs)
	}

	// A tick: every host moves, then lookups run; the first rebuilds the
	// index into the arrays the previous rebuild grew.
	grid, ticks, _ := tickWorld(t, 5000)
	tick := 0
	cycle := func() {
		tick++
		at := ticks[tick%2]
		for id, p := range at {
			grid.Update(id, p)
		}
		for id := 0; id < len(at); id += 250 {
			buf = grid.AppendNeighbors(buf[:0], at[id], 0.5, id)
		}
	}
	cycle() // warm
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm move-then-look-up cycle allocates %.1f times per run, want 0", allocs)
	}
}

// The breaker set allocates nothing once its array spans the hosts: a
// first failure, a forced trip, a probe and a recovery.
func TestLedgersZeroAllocs(t *testing.T) {
	const hosts = 500
	bs := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: 1})
	bs.RecordFailure(hosts - 1)
	breakers := func() {
		for h := 0; h < hosts; h += 7 {
			bs.RecordFailure(h)
			bs.ForceOpen(h + 1)
			bs.Tick()
			bs.Allow(h + 1)
			bs.RecordSuccess(h + 1)
		}
	}
	if allocs := testing.AllocsPerRun(20, breakers); allocs != 0 {
		t.Errorf("breakers: %v allocs per pass", allocs)
	}
}
