package sweep

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want || got < 1 {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestMapMatchesSerial is the engine-level determinism contract: for
// every worker count the result slice is identical to the serial run,
// including with cells that do real seeded work.
func TestMapMatchesSerial(t *testing.T) {
	seeds := make([]int64, 37)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cell := func(_ int, seed int64) uint64 {
		rng := rand.New(rand.NewSource(seed))
		var sum uint64
		for j := 0; j < 1000; j++ {
			sum += rng.Uint64() >> 32
		}
		return sum
	}
	want := Map(1, seeds, cell)
	for _, workers := range []int{2, 3, 4, 8, 64} {
		if got := Map(workers, seeds, cell); !reflect.DeepEqual(got, want) {
			t.Fatalf("Map(workers=%d) differs from serial", workers)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	ident := func(_, v int) int { return v }
	if got := Map(4, nil, ident); len(got) != 0 {
		t.Fatalf("Map over nil input: %v", got)
	}
	got := Map(4, []int{7}, ident)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("single cell: %v", got)
	}
}

// TestMapEveryCellOnce checks each cell executes exactly once even when
// workers outnumber cells.
func TestMapEveryCellOnce(t *testing.T) {
	const n = 5
	var counts [n]atomic.Int64
	got := Map(16, make([]struct{}, n), func(i int, _ struct{}) int {
		counts[i].Add(1)
		return i
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
		if got[i] != i {
			t.Fatalf("result[%d] = %d", i, got[i])
		}
	}
}

func TestMapOrder(t *testing.T) {
	in := []int{10, 20, 30, 40, 50, 60, 70}
	got := Map(3, in, func(i, v int) int { return v*100 + i })
	want := Map(1, in, func(i, v int) int { return v*100 + i })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Map parallel %v != serial %v", got, want)
	}
	if got[2] != 3002 {
		t.Fatalf("Map index/value mismatch: %v", got)
	}
}
