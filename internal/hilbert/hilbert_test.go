package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbsq/internal/geom"
)

func mustCurve(t *testing.T, order int, area geom.Rect) *Curve {
	t.Helper()
	c, err := New(order, area)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func unitCurve(t *testing.T, order int) *Curve {
	side := float64(int(1) << order)
	return mustCurve(t, order, geom.NewRect(0, 0, side, side))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, geom.NewRect(0, 0, 1, 1)); err == nil {
		t.Error("order 0 must be rejected")
	}
	if _, err := New(32, geom.NewRect(0, 0, 1, 1)); err == nil {
		t.Error("order 32 must be rejected")
	}
	if _, err := New(3, geom.NewRect(0, 0, 0, 0)); err == nil {
		t.Error("empty area must be rejected")
	}
	c, err := New(3, geom.NewRect(0, 0, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Side() != 8 || c.Cells() != 64 {
		t.Errorf("accessors: side=%d cells=%d", c.Side(), c.Cells())
	}
}

// TestOrder1Layout pins the base case: the order-1 curve visits
// (0,0) -> (0,1) -> (1,1) -> (1,0).
func TestOrder1Layout(t *testing.T) {
	c := unitCurve(t, 1)
	want := map[[2]int]int64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for cell, d := range want {
		if got := c.D(cell[0], cell[1]); got != d {
			t.Errorf("D(%d,%d) = %d want %d", cell[0], cell[1], got, d)
		}
		x, y := c.XY(d)
		if x != cell[0] || y != cell[1] {
			t.Errorf("XY(%d) = (%d,%d) want %v", d, x, y, cell)
		}
	}
}

// TestFigure4Cells checks several cells of the 8×8 example grid in the
// paper's Figure 4 (index values shown in the figure). The figure's grid
// has value 0 at the bottom-left, 63 at the bottom-right.
func TestFigure4Cells(t *testing.T) {
	c := unitCurve(t, 3)
	// From Figure 4 (row-major from the top row of the figure, y=7 down to
	// y=0): selected anchor cells.
	want := map[[2]int]int64{
		{0, 0}: 0,
		{1, 0}: 3,  // second cell in the bottom row
		{7, 0}: 63, // bottom-right corner ends the curve
		{0, 7}: 21, // top-left region per figure
		{7, 7}: 42,
		{0, 1}: 1,
		{1, 1}: 2,
	}
	for cell, d := range want {
		if got := c.D(cell[0], cell[1]); got != d {
			t.Errorf("D(%d,%d) = %d want %d", cell[0], cell[1], got, d)
		}
	}
}

// Property: D and XY are inverse bijections over the whole grid.
func TestBijection(t *testing.T) {
	for _, order := range []int{1, 2, 3, 4, 5} {
		c := unitCurve(t, order)
		seen := make(map[int64]bool, c.Cells())
		for y := 0; y < c.Side(); y++ {
			for x := 0; x < c.Side(); x++ {
				d := c.D(x, y)
				if d < 0 || d >= c.Cells() {
					t.Fatalf("order %d: D(%d,%d)=%d out of range", order, x, y, d)
				}
				if seen[d] {
					t.Fatalf("order %d: duplicate value %d", order, d)
				}
				seen[d] = true
				gx, gy := c.XY(d)
				if gx != x || gy != y {
					t.Fatalf("order %d: XY(D(%d,%d)) = (%d,%d)", order, x, y, gx, gy)
				}
			}
		}
	}
}

// Property: consecutive Hilbert values map to 4-adjacent cells (the
// defining locality property of the curve).
func TestAdjacency(t *testing.T) {
	for _, order := range []int{2, 3, 4, 6} {
		c := unitCurve(t, order)
		px, py := c.XY(0)
		for d := int64(1); d < c.Cells(); d++ {
			x, y := c.XY(d)
			manhattan := abs(x-px) + abs(y-py)
			if manhattan != 1 {
				t.Fatalf("order %d: step %d->%d jumps from (%d,%d) to (%d,%d)",
					order, d-1, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func TestClamping(t *testing.T) {
	c := unitCurve(t, 3)
	if got, want := c.D(-5, 100), c.D(0, 7); got != want {
		t.Errorf("clamped D = %d want %d", got, want)
	}
	x, y := c.XY(-3)
	if wx, wy := c.XY(0); x != wx || y != wy {
		t.Errorf("clamped XY low = (%d,%d)", x, y)
	}
	x, y = c.XY(1 << 40)
	if wx, wy := c.XY(c.Cells() - 1); x != wx || y != wy {
		t.Errorf("clamped XY high = (%d,%d)", x, y)
	}
}

func TestCellOfAndCellRect(t *testing.T) {
	c := mustCurve(t, 2, geom.NewRect(0, 0, 20, 20)) // 4x4 grid, 5-unit cells
	x, y := c.CellOf(geom.Pt(7, 13))
	if x != 1 || y != 2 {
		t.Fatalf("CellOf = (%d,%d)", x, y)
	}
	r := c.CellRect(1, 2)
	if r != geom.NewRect(5, 10, 10, 15) {
		t.Fatalf("CellRect = %v", r)
	}
	// Point outside clamps to border cell.
	x, y = c.CellOf(geom.Pt(-4, 100))
	if x != 0 || y != 3 {
		t.Fatalf("CellOf outside = (%d,%d)", x, y)
	}
}

// TestFigure8WindowSpan reproduces the observation behind Figure 8: a
// window covering the middle of the 8×8 grid spans a long Hilbert segment
// (the paper's example spans index values 9 to 54, ~70% of the file).
func TestFigure8WindowSpan(t *testing.T) {
	c := unitCurve(t, 3)
	// A central window: cells x in [2,5], y in [2,5].
	first, last := c.Cells(), int64(-1)
	for y := 2; y <= 5; y++ {
		for x := 2; x <= 5; x++ {
			d := c.D(x, y)
			first, last = min(first, d), max(last, d)
		}
	}
	span := last - first + 1
	if span < 40 {
		t.Errorf("central window span = %d; expected the long-segment effect (>40 of 64)", span)
	}
}

// Property: random points map to cells whose rect contains them, and the
// Hilbert value of that cell, D∘CellOf, maps back to it through XY.
func TestValueOfProperty(t *testing.T) {
	c := mustCurve(t, 5, geom.NewRect(-10, -10, 10, 10))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		x, y := c.CellOf(p)
		if !c.CellRect(x, y).Contains(p) {
			return false
		}
		vx, vy := c.XY(c.D(x, y))
		return vx == x && vy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: spatial locality — cells with close Hilbert values are close
// in space (bounded by the curve's worst-case stretch within one probe).
func TestLocalityStatistical(t *testing.T) {
	c := unitCurve(t, 6)
	rng := rand.New(rand.NewSource(3))
	center := func(d int64) geom.Point {
		x, y := c.XY(d)
		return c.CellRect(x, y).Center()
	}
	var sumNear, sumFar float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		d := rng.Int63n(c.Cells() - 10)
		near := center(d).Dist(center(d + 1))
		far := center(d).Dist(center(rng.Int63n(c.Cells())))
		sumNear += near
		sumFar += far
	}
	if sumNear/trials >= sumFar/trials {
		t.Errorf("no locality: near=%v far=%v", sumNear/trials, sumFar/trials)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
