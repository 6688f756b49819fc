// Package sweep is the deterministic parallel runner behind every
// multi-cell experiment in the repository: figure regeneration, the
// in-process bench grids, and any caller with independent parameter
// cells to evaluate. Inside one world, the warm start (sim's prefill)
// fills its hosts' caches through it, one block of hosts per cell.
//
// Determinism contract: each cell — one element of Map's input — owns
// all the state it writes (its own seeded sim.World, RNG and scratch, or
// in the warm start its own hosts' caches and scratch), whatever cells
// share they only read, and results are written into a slice indexed by
// cell position. The output is therefore bit-identical to running the cells
// serially in order, no matter how the scheduler interleaves workers.
// Callers must not smuggle shared mutable state into the mapped
// function; that is the one way to break the contract.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count every sweep runs on: GOMAXPROCS, always
// >= 1. Results do not depend on it (the determinism contract), so no
// caller chooses another; tests pass explicit counts to Map.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Map runs f over every element of in and returns the outputs in input
// order. workers is the concurrency level (Workers() outside tests); 1
// runs the elements serially on the calling goroutine with zero
// synchronization overhead. Results are identical either way — see the
// package determinism contract. f receives the element index and value
// and must not touch state shared with other elements.
//
// Workers claim one element per atomic increment: an element is a whole
// world or a block of hosts, so the shared counter is never the
// bottleneck.
func Map[In, Out any](workers int, in []In, f func(int, In) Out) []Out {
	out := make([]Out, len(in))
	workers = min(workers, len(in))
	if workers <= 1 {
		for i, v := range in {
			out[i] = f(i, v)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(in); i = int(next.Add(1)) - 1 {
				out[i] = f(i, in[i])
			}
		}()
	}
	wg.Wait()
	return out
}
