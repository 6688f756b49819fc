package geom

import "math"

// CircleRectArea returns the exact area of the intersection between the
// closed disk centered at c with the given radius and the rectangle r.
//
// The computation integrates the vertical extent of the intersection over
// x after translating the disk to the origin. The integration interval is
// split at every x where the circle crosses y = rect.Min.Y or
// y = rect.Max.Y so that on each sub-interval the upper and lower bounds
// are each either a constant or the circle arc, for which a closed-form
// antiderivative exists. Its angle is atan2(x, √(R²−x²)): asin(x/R) moves
// by √ε ≈ 1e-8 near x = ±R, which made the area depend on the axis.
func CircleRectArea(c Point, radius float64, r Rect) float64 {
	if radius <= 0 || r.Empty() {
		return 0
	}
	// Translate so the disk is centered at the origin.
	x1, x2 := r.Min.X-c.X, r.Max.X-c.X
	y1, y2 := r.Min.Y-c.Y, r.Max.Y-c.Y

	lo := max(x1, -radius)
	hi := min(x2, radius)
	if lo >= hi {
		return 0
	}

	// Critical x values: circle crossings with the horizontal rect edges.
	// At most 6 (interval ends + 4 crossings), so a fixed-size stack
	// array and an inline insertion sort keep the hot path allocation
	// free (zero-width sub-intervals integrate to zero, so duplicates
	// need no removal).
	var cutsArr [6]arcPoint
	cutsArr[0], cutsArr[1] = arcPoint{lo, chord(radius, lo)}, arcPoint{hi, chord(radius, hi)}
	n := 2
	for _, y := range [2]float64{y1, y2} {
		if math.Abs(y) < radius {
			xc := chord(radius, y)
			for _, x := range [2]float64{-xc, xc} {
				if x > lo && x < hi {
					cutsArr[n] = arcPoint{x, math.Abs(y)}
					n++
				}
			}
		}
	}
	cuts := cutsArr[:n]
	for i := 1; i < len(cuts); i++ {
		v := cuts[i]
		j := i - 1
		for j >= 0 && cuts[j].x > v.x {
			cuts[j+1] = cuts[j]
			j--
		}
		cuts[j+1] = v
	}

	total := 0.0
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		f := chord(radius, (a.x+b.x)/2)
		upper := min(y2, f)
		lower := max(y1, -f)
		if upper <= lower {
			continue
		}
		// On this sub-interval the active bounds do not switch branch, so
		// integrate each bound in closed form.
		var hiInt float64
		if y2 < f { // upper bound is the constant y2 throughout
			hiInt = y2 * (b.x - a.x)
		} else { // upper bound is the arc +sqrt(R^2-x^2)
			hiInt = arcIntegral(radius, b) - arcIntegral(radius, a)
		}
		var loInt float64
		if y1 > -f { // lower bound is the constant y1
			loInt = y1 * (b.x - a.x)
		} else { // lower bound is the arc -sqrt(R^2-x^2)
			loInt = -(arcIntegral(radius, b) - arcIntegral(radius, a))
		}
		total += hiInt - loInt
	}
	return total
}

// arcPoint is a cut x with its s = √(R²−x²): the edge's |y| for a
// crossing, chord(R, x) for an exact x.
type arcPoint struct{ x, s float64 }

// chord returns √(R²−x²) for |x| ≤ R, and 0 beyond.
func chord(radius, x float64) float64 {
	return math.Sqrt(max(0, (radius-x)*(radius+x)))
}

// arcIntegral returns the antiderivative of sqrt(R^2 - x^2) at the arc
// point p, i.e. (x*sqrt(R^2-x^2) + R^2*asin(x/R)) / 2 with the angle taken
// from both coordinates.
func arcIntegral(radius float64, p arcPoint) float64 {
	return (p.x*p.s + radius*radius*math.Atan2(p.x, p.s)) / 2
}
