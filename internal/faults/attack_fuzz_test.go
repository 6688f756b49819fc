package faults

import (
	"math"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// FuzzAttackClaim hammers the attack-profile claim mangler with
// arbitrary geometry and POI payloads. Invariants under fuzzing:
//
//  1. no panic on any input (degenerate, inverted, or huge rects;
//     empty or large POI sets; every attack code including invalid ones);
//  2. the input POI slice is never modified;
//  3. for finite inputs and a concrete attack, the output claim is a
//     material lie (the soundness precondition the trust layer's
//     single-sample audits rely on), and every invented POI carries a
//     fabricated-range ID.
func FuzzAttackClaim(f *testing.F) {
	f.Add(int64(1), byte(1), 0.0, 0.0, 10.0, 10.0, []byte{0x10, 0x80, 0x40, 0xc0})
	f.Add(int64(2), byte(2), -3.0, 2.0, 5.0, 8.0, []byte{})
	f.Add(int64(3), byte(3), 5.0, 5.0, 5.0, 5.0, []byte{0x7f, 0x7f})
	f.Add(int64(4), byte(4), 1.0, 1.0, 2.0, 2.0, []byte{0x00, 0xff, 0x55, 0xaa, 0x11, 0x22})
	f.Add(int64(5), byte(5), 0.0, 0.0, 1e9, 1e9, []byte{0x01})
	f.Fuzz(func(t *testing.T, seed int64, attack byte, x1, y1, x2, y2 float64, poiBytes []byte) {
		finite := !math.IsNaN(x1) && !math.IsInf(x1, 0) &&
			!math.IsNaN(y1) && !math.IsInf(y1, 0) &&
			!math.IsNaN(x2) && !math.IsInf(x2, 0) &&
			!math.IsNaN(y2) && !math.IsInf(y2, 0)
		if !finite {
			// Claims originate from decoded wire regions, which the CRC
			// and region validation keep finite; still must not panic.
			x1, y1, x2, y2 = 0, 0, 1, 1
		}
		vr := geom.NewRect(x1, y1, x2, y2)
		if len(poiBytes) > 256 {
			poiBytes = poiBytes[:256]
		}
		var pois []broadcast.POI
		for i := 0; i+1 < len(poiBytes); i += 2 {
			fx := float64(poiBytes[i]) / 255
			fy := float64(poiBytes[i+1]) / 255
			pois = append(pois, broadcast.POI{
				ID:  int64(i/2 + 1),
				Pos: geom.Pt(vr.Min.X+fx*vr.Width(), vr.Min.Y+fy*vr.Height()),
			})
		}
		orig := append([]broadcast.POI(nil), pois...)

		a := Attack(attack % 6)
		in := New(seed, Profile{ByzantineRate: 1, Attack: a})
		cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, a)

		for i := range orig {
			if pois[i] != orig[i] {
				t.Fatalf("attack %v mutated input POI %d", a, i)
			}
		}
		if a == AttackNone {
			if cvr != vr {
				t.Fatalf("AttackNone changed the VR")
			}
			return
		}
		for _, p := range cpois {
			if p.ID >= FabricatedIDBase {
				continue
			}
			// Non-fabricated IDs must come from the input set.
			found := false
			for _, q := range orig {
				if q.ID == p.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("attack %v invented POI with real-range ID %d", a, p.ID)
			}
		}
		if !claimIsMaterialLie(vr, orig, cvr, cpois) {
			t.Fatalf("attack %v produced an honest claim\n vr=%v pois=%v\ncvr=%v cpois=%v",
				a, vr, orig, cvr, cpois)
		}
	})
}
