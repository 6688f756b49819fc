package hilbert

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

func benchCurve(b *testing.B, order int) *Curve {
	b.Helper()
	c, err := New(order, geom.NewRect(0, 0, 20, 20))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkD(b *testing.B) {
	c := benchCurve(b, 10)
	side := c.Side()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.D(i%side, (i*7)%side)
	}
}

func BenchmarkXY(b *testing.B) {
	c := benchCurve(b, 10)
	cells := c.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.XY(int64(i) % cells)
	}
}

func BenchmarkCellOf(b *testing.B) {
	c := benchCurve(b, 10)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CellOf(pts[i%len(pts)])
	}
}
