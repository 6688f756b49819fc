// Package hilbert implements the 2-D Hilbert space-filling curve used to
// order spatial data on the wireless broadcast channel (Zheng et al.,
// "Spatial Queries in Wireless Broadcast Systems"; Jagadish, "Analysis of
// the Hilbert Curve for Representing Two-Dimensional Space").
//
// The server partitions the service area into a 2^order × 2^order grid and
// broadcasts data packets in ascending Hilbert value of their grid cell,
// so consecutive packets are spatially close.
package hilbert

import (
	"fmt"

	"lbsq/internal/geom"
)

// Curve maps between grid coordinates and positions along a Hilbert curve
// over a square region of the plane.
type Curve struct {
	side  int       // grid is side × side with side = 1<<order
	area  geom.Rect // region of the plane covered by the grid
	cellW float64   // width of one grid cell
	cellH float64   // height of one grid cell
}

// New returns a Curve of the given order over the area. Order must be in
// [1, 31].
func New(order int, area geom.Rect) (*Curve, error) {
	if order < 1 || order > 31 {
		return nil, fmt.Errorf("hilbert: order %d out of range [1,31]", order)
	}
	if area.Empty() {
		return nil, fmt.Errorf("hilbert: empty area %v", area)
	}
	side := 1 << order
	return &Curve{
		side:  side,
		area:  area,
		cellW: area.Width() / float64(side),
		cellH: area.Height() / float64(side),
	}, nil
}

// Side returns the grid side length (number of cells per axis).
func (c *Curve) Side() int { return c.side }

// Cells returns the total number of grid cells, side².
func (c *Curve) Cells() int64 { return int64(c.side) * int64(c.side) }

// D computes the Hilbert value of grid cell (x, y). Coordinates outside
// the grid are clamped.
func (c *Curve) D(x, y int) int64 {
	x = clampInt(x, 0, c.side-1)
	y = clampInt(y, 0, c.side-1)
	var d int64
	for s := c.side / 2; s > 0; s /= 2 {
		var rx, ry int
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += int64(s) * int64(s) * int64((3*rx)^ry)
		x, y = rotate(s, x, y, rx, ry)
	}
	return d
}

// XY computes the grid cell of Hilbert value d (the inverse of D). Values
// outside [0, Cells) are clamped.
func (c *Curve) XY(d int64) (x, y int) {
	if d < 0 {
		d = 0
	} else if max := c.Cells() - 1; d > max {
		d = max
	}
	t := d
	for s := 1; s < c.side; s *= 2 {
		rx := int(1 & (t / 2))
		ry := int(1 & (t ^ int64(rx)))
		x, y = rotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// rotate applies the quadrant rotation/reflection of the Hilbert
// construction.
func rotate(s, x, y, rx, ry int) (int, int) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// CellOf returns the grid cell containing point p. Points outside the
// area are clamped to the border cells.
func (c *Curve) CellOf(p geom.Point) (x, y int) {
	x = int((p.X - c.area.Min.X) / c.cellW)
	y = int((p.Y - c.area.Min.Y) / c.cellH)
	return clampInt(x, 0, c.side-1), clampInt(y, 0, c.side-1)
}

// CellRect returns the rectangle covered by grid cell (x, y).
func (c *Curve) CellRect(x, y int) geom.Rect {
	minX := c.area.Min.X + float64(x)*c.cellW
	minY := c.area.Min.Y + float64(y)*c.cellH
	return geom.Rect{
		Min: geom.Pt(minX, minY),
		Max: geom.Pt(minX+c.cellW, minY+c.cellH),
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
