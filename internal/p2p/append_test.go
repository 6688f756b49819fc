package p2p

import (
	"math/rand"
	"reflect"
	"testing"

	"lbsq/internal/geom"
)

func buildNet(t testing.TB, rng *rand.Rand, hosts int) *Network {
	net, err := NewNetwork(geom.NewRect(0, 0, 1000, 1000), 100)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < hosts; id++ {
		net.Update(id, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
	return net
}

// TestAppendNeighborsMatchesNeighbors checks the buffer-reuse variant
// appends the exact sequence Neighbors returns, for single- and
// multi-hop lookups, and that a dirty prefix in dst is preserved.
func TestAppendNeighborsMatchesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := buildNet(t, rng, 500)
	buf := make([]int, 0, 64)
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		radius := rng.Float64() * 150
		exclude := rng.Intn(502) - 1
		want := net.Neighbors(q, radius, exclude)
		buf = net.AppendNeighbors(buf[:0], q, radius, exclude)
		if len(want) == 0 && len(buf) == 0 {
			continue
		}
		if !reflect.DeepEqual([]int(buf), want) {
			t.Fatalf("AppendNeighbors differs from Neighbors at %v r=%v", q, radius)
		}
		for hops := 1; hops <= 3; hops++ {
			wantMH := net.AppendNeighborsMultiHop(nil, q, radius, hops, exclude)
			gotMH := net.AppendNeighborsMultiHop(buf[:0], q, radius, hops, exclude)
			if len(wantMH) == 0 && len(gotMH) == 0 {
				continue
			}
			if !reflect.DeepEqual([]int(gotMH), wantMH) {
				t.Fatalf("AppendNeighborsMultiHop(hops=%d) differs at %v r=%v", hops, q, radius)
			}
		}
	}
	// Appending must extend dst, not overwrite it from index 0.
	prefix := []int{-7, -8}
	out := net.AppendNeighbors(prefix, geom.Pt(500, 500), 120, -1)
	if out[0] != -7 || out[1] != -8 {
		t.Fatalf("AppendNeighbors clobbered the dst prefix: %v", out[:2])
	}
	if !reflect.DeepEqual(out[2:], net.AppendNeighbors(nil, geom.Pt(500, 500), 120, -1)) {
		t.Fatal("AppendNeighbors with prefix produced a different suffix")
	}
}
