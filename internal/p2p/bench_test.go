package p2p

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func benchNet(b *testing.B, hosts int) (*Network, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n, err := NewNetwork(geom.NewRect(0, 0, 20, 20), 0.125)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		n.Update(i, geom.Pt(rng.Float64()*20, rng.Float64()*20))
	}
	return n, rng
}

// BenchmarkUpdate times one Update, which only stores the position; the
// index is rebuilt by the next lookup (BenchmarkTick counts that).
func BenchmarkUpdate(b *testing.B) {
	n, rng := benchNet(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Update(i%10000, geom.Pt(rng.Float64()*20, rng.Float64()*20))
	}
}

func BenchmarkNeighbors200m(b *testing.B) {
	n, rng := benchNet(b, 10000)
	const radius = 200 / 1609.344
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		n.Neighbors(q, radius, i%10000)
	}
}

// tickWorld is a window_dense-shaped grid: hosts registered on a 14-mile
// square with 200 m cells, plus their positions then and one tick later,
// each host moved by up to 0.07 mi on either axis.
func tickWorld(tb testing.TB, hosts int) (*Network, [2][]geom.Point, *rand.Rand) {
	const side, step = 14.0, 0.07
	rng := rand.New(rand.NewSource(1))
	n, err := NewNetwork(geom.NewRect(0, 0, side, side), 200/1609.344)
	if err != nil {
		tb.Fatal(err)
	}
	ticks := [2][]geom.Point{make([]geom.Point, hosts), make([]geom.Point, hosts)}
	for id := range ticks[0] {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		ticks[0][id] = p
		ticks[1][id] = geom.Pt(
			min(side, max(0, p.X+step*(2*rng.Float64()-1))),
			min(side, max(0, p.Y+step*(2*rng.Float64()-1))))
		n.Update(id, p)
	}
	return n, ticks, rng
}

// BenchmarkTick times one window_dense tick of the grid: every one of
// 45,717 hosts moves (hosts alternate between two position sets a tick
// apart), then 253 single-hop 200 m lookups run from random hosts. The
// first lookup pays the rebuild, so this is the per-tick cost of the
// neighbor grid.
func BenchmarkTick(b *testing.B) {
	const hosts, lookups = 45717, 253
	const radius = 200 / 1609.344
	n, ticks, rng := tickWorld(b, hosts)
	queriers := make([]int, lookups)
	for i := range queriers {
		queriers[i] = rng.Intn(hosts)
	}
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := ticks[(i+1)%2]
		for id, p := range at {
			n.Update(id, p)
		}
		for _, id := range queriers {
			buf = n.AppendNeighbors(buf[:0], at[id], radius, id)
		}
	}
}
