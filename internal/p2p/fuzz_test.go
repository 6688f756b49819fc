package p2p

import (
	"slices"
	"testing"

	"lbsq/internal/geom"
)

// FuzzNeighbors drives one grid through a decoded sequence of Update and
// lookup operations and checks every lookup against the sorted
// brute-force scan (bruteNeighbors).
//
// data[0] picks the cell size on a 16 × 16 area, (1 + data[0]%32)/8, so
// from 1/8 to 4, a quarter of the side. Each following
// 4-byte group (op, a, b, c) is one operation, by op%4:
//   - 0, 1, 2: Update(a%32) to (int8(b)/4, int8(c)/4), which reaches 16
//     beyond every edge of the area (such hosts sit in the border cells);
//   - 3: a lookup at (int8(a)/4, int8(b)/4) with radius int8(c)/8 (zero,
//     negative, or up to 16, wider than any cell), excluding
//     (op>>2)%33 - 1 (-1 excludes nobody).
//
// Every coordinate and radius is a multiple of 1/8 below 64, so the
// squared distances are exact and the oracle's predicate is the grid's.
func FuzzNeighbors(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := mustNetwork(t, geom.NewRect(0, 0, 16, 16), float64(1+data[0]%32)/8)
		pts := map[int]geom.Point{}
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			switch op % 4 {
			case 0, 1, 2:
				p := geom.Pt(float64(int8(b))/4, float64(int8(c))/4)
				n.Update(int(a%32), p)
				pts[int(a%32)] = p
			case 3:
				q := geom.Pt(float64(int8(a))/4, float64(int8(b))/4)
				radius := float64(int8(c)) / 8
				exclude := int(op>>2)%33 - 1
				got := n.Neighbors(q, radius, exclude)
				if want := bruteNeighbors(pts, q, radius, exclude); !slices.Equal(got, want) {
					t.Fatalf("Neighbors(%v, %v, %d) = %v, want %v", q, radius, exclude, got, want)
				}
			}
		}
	})
}
