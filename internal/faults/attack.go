// Byzantine attack profiles: the adversarial half of the trust layer
// (internal/trust holds the defense). Where faults.go models a lossy but
// honest substrate — every fault removes information — the attack
// profiles model *lying peers*: hosts that fabricate information their
// cache never held. A fabricated verified region passes the wire CRC and
// arrives on time, so neither the fault layer nor the breaker lifecycle
// can catch it; it poisons Lemma 3.1 verification directly (see
// internal/core/byzantine_test.go).
//
// The adversary model is deliberately the *strongest consistent liar*:
// byzantine status is a property of the host (assigned once, seeded, at
// world construction), and every claim a byzantine host makes is
// materially false — AttackClaim guarantees the returned (VR, POIs) pair
// disagrees with the truthful input on at least one POI membership or
// position. This is the worst case for the querying host (a peer that
// lies only sometimes is strictly easier to tolerate: its honest replies
// are honest), and it is what makes the trust layer's audit-gated
// vouching sound: any audit of any byzantine claim fails, so a byzantine
// peer can never become vouched, so its claims never enter the trusted
// verification path. See internal/trust and DESIGN.md §11.
package faults

import (
	"fmt"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Attack selects the lie a byzantine peer tells about its cached
// verified region. AttackNone is the honest zero value.
type Attack int

const (
	// AttackNone: the peer is honest (zero value).
	AttackNone Attack = iota
	// AttackFabricate: the peer invents POIs that do not exist and
	// claims they are inside its verified region. The classic Lemma 3.1
	// poison: a fabricated POI close to the query point verifies as the
	// (wrong) nearest neighbor.
	AttackFabricate
	// AttackOmit: the peer hides a real POI from its verified region
	// while still claiming the region is fully verified. The *absence*
	// poison: NNV concludes "no closer POI exists in the VR" when one
	// does. Falls back to fabrication when the region holds no POI to
	// omit (an empty claim would be vacuously true, i.e. not a lie).
	AttackOmit
	// AttackInflate: the peer exaggerates its verified region — the VR
	// is expanded beyond what the peer actually verified, and a
	// fabricated POI is planted in the inflated ring so the exaggeration
	// is materially false rather than vacuously consistent.
	AttackInflate
	// AttackShift: the peer reports a real POI at a perturbed position,
	// corrupting both the distance ranking and the verification
	// geometry. Falls back to fabrication when the region holds no POI.
	AttackShift
	// AttackMix cycles deterministically through the four concrete
	// attacks per claim — the default adversary when a byzantine rate is
	// set without naming an attack.
	AttackMix
)

// String implements fmt.Stringer (and is the -attack flag spelling).
func (a Attack) String() string {
	switch a {
	case AttackFabricate:
		return "fabricate"
	case AttackOmit:
		return "omit"
	case AttackInflate:
		return "inflate"
	case AttackShift:
		return "shift"
	case AttackMix:
		return "mix"
	default:
		return "none"
	}
}

// Set implements flag.Value: it parses the -attack spelling.
func (a *Attack) Set(s string) (err error) {
	*a, err = ParseAttack(s)
	return err
}

// ParseAttack parses the -attack flag spelling.
func ParseAttack(s string) (Attack, error) {
	switch s {
	case "", "none":
		return AttackNone, nil
	case "fabricate":
		return AttackFabricate, nil
	case "omit":
		return AttackOmit, nil
	case "inflate":
		return AttackInflate, nil
	case "shift":
		return AttackShift, nil
	case "mix":
		return AttackMix, nil
	default:
		return AttackNone, fmt.Errorf("faults: unknown attack %q (want none|fabricate|omit|inflate|shift|mix)", s)
	}
}

// FabricatedIDBase offsets the IDs of fabricated POIs far above any real
// database ID so ground-truth self-checks (and tests) can recognize an
// invented POI by inspection. Collisions with real IDs would let a
// fabrication masquerade as a stale copy of a real POI.
const FabricatedIDBase = int64(1) << 40

// InflateFactor is the fractional VR growth applied by AttackInflate
// (each side grows by this fraction of the half-extent).
const InflateFactor = 0.5

// ShiftFraction bounds AttackShift's position perturbation relative to
// the VR extent: large enough to corrupt distance rankings, small enough
// that the shifted POI plausibly stays near the region.
const ShiftFraction = 0.25

// minMaterialDelta is the floor on geometric perturbations so a lie stays
// material even when the verified region is degenerate (zero extent).
const minMaterialDelta = 1e-3

// AttackClaim applies the byzantine attack a to one shared claim — the
// (verified region, POI set) pair a peer is about to send — and returns
// the lied-about claim. The contract every branch upholds:
//
//   - The output is *materially false*: it disagrees with the truthful
//     input on at least one POI's existence or position. Attacks that
//     would be vacuously true on the given input (omitting from or
//     shifting within an empty POI set, inflating around nothing) fall
//     back to fabrication, so a byzantine claim is never accidentally
//     honest. This is what lets the trust layer's spot audits convict
//     from a single sample (see internal/trust).
//   - The input slice and rect are never modified; lied-about POI sets
//     are copies cut from arena (peers share views of their cache
//     storage), valid until the caller rewinds it.
//   - Every call with a concrete attack tells exactly one lie, for the
//     caller to count; AttackNone is the identity and draws nothing.
//
// Parameter draws come from the injector's own stream, preserving the
// layer's invariant that enabling misbehavior never perturbs the
// simulation's randomness.
func (in *Injector) AttackClaim(arena *broadcast.POIArena, vr geom.Rect, pois []broadcast.POI, a Attack) (geom.Rect, []broadcast.POI) {
	if a == AttackNone {
		return vr, pois
	}
	seq := in.lieSeq
	in.lieSeq++
	if a == AttackMix {
		a = [...]Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift}[seq%4]
	}
	switch a {
	case AttackOmit:
		// Only a POI inside the claimed VR can be materially omitted:
		// hiding a POI the region never covered leaves the claim true.
		// (Cached POIs normally lie inside their VR, but boundary POIs
		// can round an ulp outside it.)
		inside := in.inside[:0]
		for i, p := range pois {
			if vr.Contains(p.Pos) {
				inside = append(inside, i)
			}
		}
		in.inside = inside
		if len(inside) == 0 {
			return vr, in.fabricateInto(arena, vr, pois, seq)
		}
		drop := inside[in.rng.Intn(len(inside))]
		out := arena.Alloc(len(pois) - 1)[:0]
		out = append(out, pois[:drop]...)
		out = append(out, pois[drop+1:]...)
		return vr, out
	case AttackInflate:
		grow := InflateFactor * (vr.Width() + vr.Height()) / 4
		if grow < minMaterialDelta {
			grow = minMaterialDelta
		}
		big := vr.Expand(grow)
		// Plant a fabricated POI in the inflated ring so the exaggerated
		// VR is a positive lie, not a vacuously empty claim: up to eight
		// uniform draws in the big rect, falling back to a corner of the
		// ring (always outside the original vr since grow > 0).
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
		return big, plant(arena, pois, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
	case AttackShift:
		if len(pois) == 0 {
			return vr, in.fabricateInto(arena, vr, pois, seq)
		}
		idx := in.rng.Intn(len(pois))
		dx := ShiftFraction * vr.Width() * (2*in.rng.Float64() - 1)
		dy := ShiftFraction * vr.Height() * (2*in.rng.Float64() - 1)
		if dx < minMaterialDelta && dx > -minMaterialDelta &&
			dy < minMaterialDelta && dy > -minMaterialDelta {
			// Degenerate VR (or tiny draw): force a material displacement.
			dx, dy = minMaterialDelta, minMaterialDelta
		}
		out := append(arena.Alloc(len(pois))[:0], pois...)
		out[idx].Pos = out[idx].Pos.Add(geom.Pt(dx, dy))
		return vr, out
	default: // AttackFabricate
		return vr, in.fabricateInto(arena, vr, pois, seq)
	}
}

// fabricateInto appends one invented POI placed inside vr (at vr.Min for
// a degenerate rect) to a copy of pois cut from arena.
func (in *Injector) fabricateInto(arena *broadcast.POIArena, vr geom.Rect, pois []broadcast.POI, seq int64) []broadcast.POI {
	p := vr.Min
	if !vr.Empty() {
		p = geom.Pt(
			vr.Min.X+in.rng.Float64()*vr.Width(),
			vr.Min.Y+in.rng.Float64()*vr.Height(),
		)
	}
	return plant(arena, pois, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
}

// plant returns a copy of pois cut from arena with p appended.
func plant(arena *broadcast.POIArena, pois []broadcast.POI, p broadcast.POI) []broadcast.POI {
	return append(append(arena.Alloc(len(pois) + 1)[:0], pois...), p)
}
