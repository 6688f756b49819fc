package faults

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// refMangle is Mangle's body before it damaged the frame in place, kept
// verbatim (as a function of the injector) as the reference the in-place
// kernel is held to.
func refMangle(in *Injector, b []byte, fate ReplyFate) []byte {
	if len(b) == 0 {
		return b
	}
	switch fate {
	case FateTruncate:
		// Cut strictly inside the message so something, but not
		// everything, arrives.
		cut := 1 + in.rng.Intn(len(b))
		if cut >= len(b) {
			cut = len(b) - 1
		}
		return append([]byte(nil), b[:cut]...)
	case FateCorrupt:
		out := append([]byte(nil), b...)
		flips := 1 + in.rng.Intn(4)
		for i := 0; i < flips; i++ {
			out[in.rng.Intn(len(out))] ^= byte(1) << in.rng.Intn(8)
		}
		return out
	default:
		return b
	}
}

// refAttackClaim is AttackClaim's body before it cut its copies from the
// caller's arena, kept verbatim (as a function of the injector).
func refAttackClaim(in *Injector, vr geom.Rect, pois []broadcast.POI, a Attack) (geom.Rect, []broadcast.POI) {
	if a == AttackNone {
		return vr, pois
	}
	seq := in.lieSeq
	in.lieSeq++
	if a == AttackMix {
		a = [...]Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift}[seq%4]
	}
	in.Counters.ByzantineLies++
	switch a {
	case AttackOmit:
		inside := make([]int, 0, len(pois))
		for i, p := range pois {
			if vr.Contains(p.Pos) {
				inside = append(inside, i)
			}
		}
		if len(inside) == 0 {
			return vr, refFabricateInto(in, vr, pois, seq)
		}
		drop := inside[in.rng.Intn(len(inside))]
		out := make([]broadcast.POI, 0, len(pois)-1)
		out = append(out, pois[:drop]...)
		out = append(out, pois[drop+1:]...)
		return vr, out
	case AttackInflate:
		grow := InflateFactor * (vr.Width() + vr.Height()) / 4
		if grow < minMaterialDelta {
			grow = minMaterialDelta
		}
		big := vr.Expand(grow)
		p := big.Min
		for try := 0; try < 8; try++ {
			cand := geom.Pt(
				big.Min.X+in.rng.Float64()*big.Width(),
				big.Min.Y+in.rng.Float64()*big.Height(),
			)
			if !vr.Contains(cand) {
				p = cand
				break
			}
		}
		out := make([]broadcast.POI, 0, len(pois)+1)
		out = append(out, pois...)
		out = append(out, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
		return big, out
	case AttackShift:
		if len(pois) == 0 {
			return vr, refFabricateInto(in, vr, pois, seq)
		}
		idx := in.rng.Intn(len(pois))
		dx := ShiftFraction * vr.Width() * (2*in.rng.Float64() - 1)
		dy := ShiftFraction * vr.Height() * (2*in.rng.Float64() - 1)
		if dx < minMaterialDelta && dx > -minMaterialDelta &&
			dy < minMaterialDelta && dy > -minMaterialDelta {
			dx, dy = minMaterialDelta, minMaterialDelta
		}
		out := append([]broadcast.POI(nil), pois...)
		out[idx].Pos = out[idx].Pos.Add(geom.Pt(dx, dy))
		return vr, out
	default: // AttackFabricate
		return vr, refFabricateInto(in, vr, pois, seq)
	}
}

func refFabricateInto(in *Injector, vr geom.Rect, pois []broadcast.POI, seq int64) []broadcast.POI {
	p := vr.Min
	if !vr.Empty() {
		p = geom.Pt(
			vr.Min.X+in.rng.Float64()*vr.Width(),
			vr.Min.Y+in.rng.Float64()*vr.Height(),
		)
	}
	out := make([]broadcast.POI, 0, len(pois)+1)
	out = append(out, pois...)
	out = append(out, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
	return out
}

// sameStream reports whether two injectors' streams are at the same
// position, by drawing from both.
func sameStream(a, b *Injector) bool {
	for i := 0; i < 4; i++ {
		if a.rng.Int63() != b.rng.Int63() {
			return false
		}
	}
	return true
}

// The in-place Mangle arrives at the reference's bytes and leaves the
// stream where the reference leaves it, for both damaging fates and the
// two identities, over frames of every length from 0 to 40.
func TestMangleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for seed := int64(1); seed <= 40; seed++ {
		got, ref := New(seed, Profile{}), New(seed, Profile{})
		for trial := 0; trial < 200; trial++ {
			msg := make([]byte, rng.Intn(41))
			rng.Read(msg)
			fate := ReplyFate(rng.Intn(4))
			want := refMangle(ref, msg, fate)
			frame := append([]byte(nil), msg...)
			if out := got.Mangle(frame, fate); !bytes.Equal(out, want) {
				t.Fatalf("seed %d trial %d %v: %x, reference %x", seed, trial, fate, out, want)
			}
		}
		if !sameStream(got, ref) {
			t.Fatalf("seed %d: the stream moved differently from the reference", seed)
		}
	}
}

// AttackClaim into an arena gives the reference's claim — the region and
// every POI, in order — for every attack, AttackMix's rotation included,
// leaves the stream, the lie sequence and the counters where the reference
// leaves them, and cuts every lied-about set from the arena. Claims come
// with POIs inside, on the boundary of and outside their region, empty
// sets and degenerate regions, so every fallback runs.
func TestAttackClaimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	claim := func() (geom.Rect, []broadcast.POI) {
		x, y := rng.Float64()*10, rng.Float64()*10
		w, h := rng.Float64()*3, rng.Float64()*3
		if rng.Intn(8) == 0 {
			w = 0
		}
		vr := geom.NewRect(x, y, x+w, y+h)
		pois := make([]broadcast.POI, rng.Intn(6))
		for i := range pois {
			p := geom.Pt(x-1+rng.Float64()*(w+2), y-1+rng.Float64()*(h+2))
			if rng.Intn(4) == 0 {
				p = vr.Min // on the boundary
			}
			pois[i] = broadcast.POI{ID: int64(i), Pos: p}
		}
		return vr, pois
	}
	attacks := []Attack{AttackNone, AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix}
	for _, a := range attacks {
		got, ref := New(3, Profile{}), New(3, Profile{})
		var arena broadcast.POIArena
		for trial := 0; trial < 400; trial++ {
			if trial%50 == 0 {
				arena.Rewind()
			}
			vr, pois := claim()
			orig := slices.Clone(pois)
			wvr, wpois := refAttackClaim(ref, vr, pois, a)
			gvr, gpois := got.AttackClaim(&arena, vr, pois, a)
			if gvr != wvr || !slices.Equal(gpois, wpois) || len(gpois) != cap(gpois) && a != AttackNone {
				t.Fatalf("%v trial %d: got %v %v, reference %v %v", a, trial, gvr, gpois, wvr, wpois)
			}
			if !slices.Equal(pois, orig) {
				t.Fatalf("%v trial %d: the input POIs were written", a, trial)
			}
			if a != AttackNone && len(gpois) > 0 && len(pois) > 0 && &gpois[0] == &pois[0] {
				t.Fatalf("%v trial %d: the lie aliases the input", a, trial)
			}
		}
		if got.lieSeq != ref.lieSeq || got.Counters != ref.Counters || !sameStream(got, ref) {
			t.Fatalf("%v: lie sequence %d / %d, counters %+v / %+v, or the stream differ from the reference",
				a, got.lieSeq, ref.lieSeq, got.Counters, ref.Counters)
		}
	}
}
