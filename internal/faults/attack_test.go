package faults

import (
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// claimIsMaterialLie mirrors the audit's view of a claim: given the
// truthful (vr, pois) and the claimed (cvr, cpois), the claim is a
// material lie iff it contains a POI the truth does not (wrong existence
// or position), or it omits a truthful POI that lies inside the claimed
// region (a false "verified empty" assertion over that spot).
func claimIsMaterialLie(vr geom.Rect, pois []broadcast.POI, cvr geom.Rect, cpois []broadcast.POI) bool {
	truth := make(map[broadcast.POI]bool, len(pois))
	for _, p := range pois {
		truth[p] = true
	}
	for _, p := range cpois {
		if !truth[p] {
			return true
		}
	}
	claimed := make(map[broadcast.POI]bool, len(cpois))
	for _, p := range cpois {
		claimed[p] = true
	}
	for _, p := range pois {
		if cvr.Contains(p.Pos) && !claimed[p] {
			return true
		}
	}
	return false
}

func testClaim() (geom.Rect, []broadcast.POI) {
	vr := geom.NewRect(2, 3, 12, 9)
	pois := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(3, 4)},
		{ID: 2, Pos: geom.Pt(7, 5)},
		{ID: 3, Pos: geom.Pt(11, 8)},
	}
	return vr, pois
}

func TestAttackClaimAlwaysMaterial(t *testing.T) {
	attacks := []Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix}
	for _, a := range attacks {
		for seed := int64(1); seed <= 50; seed++ {
			in := New(seed, Profile{ByzantineRate: 0.5, Attack: a})
			vr, pois := testClaim()
			cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, a)
			if !claimIsMaterialLie(vr, pois, cvr, cpois) {
				t.Fatalf("attack %v seed %d: claim not materially false\n vr=%v pois=%v\ncvr=%v cpois=%v",
					a, seed, vr, pois, cvr, cpois)
			}
			if in.lieSeq != 1 {
				t.Fatalf("attack %v: told %d lies, want 1", a, in.lieSeq)
			}
		}
	}
}

// Attacks that would be vacuously true on an empty POI set must fall back
// to fabrication rather than emit an honest claim.
func TestAttackClaimEmptyPOIFallback(t *testing.T) {
	vr := geom.NewRect(0, 0, 4, 4)
	for _, a := range []Attack{AttackOmit, AttackShift, AttackFabricate, AttackInflate} {
		in := New(7, Profile{ByzantineRate: 1, Attack: a})
		cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, nil, a)
		if !claimIsMaterialLie(vr, nil, cvr, cpois) {
			t.Fatalf("attack %v on empty POI set: claim not material (cvr=%v cpois=%v)", a, cvr, cpois)
		}
		if len(cpois) == 0 {
			t.Fatalf("attack %v on empty POI set: no fabricated POI", a)
		}
		for _, p := range cpois {
			if p.ID < FabricatedIDBase {
				t.Fatalf("attack %v: fabricated POI has real-range ID %d", a, p.ID)
			}
		}
	}
}

// A degenerate (zero-extent) VR must still produce material lies: shift
// needs a displacement floor and inflate needs a growth floor.
func TestAttackClaimDegenerateVR(t *testing.T) {
	vr := geom.NewRect(5, 5, 5, 5)
	pois := []broadcast.POI{{ID: 9, Pos: geom.Pt(5, 5)}}
	for _, a := range []Attack{AttackShift, AttackInflate, AttackFabricate, AttackOmit} {
		in := New(11, Profile{ByzantineRate: 1, Attack: a})
		cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, a)
		if !claimIsMaterialLie(vr, pois, cvr, cpois) {
			t.Fatalf("attack %v on degenerate VR: claim not material (cvr=%v cpois=%v)", a, cvr, cpois)
		}
	}
}

func TestAttackClaimDoesNotMutateInput(t *testing.T) {
	for _, a := range []Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix} {
		in := New(3, Profile{ByzantineRate: 1, Attack: a})
		vr, pois := testClaim()
		orig := append([]broadcast.POI(nil), pois...)
		for i := 0; i < 8; i++ {
			in.AttackClaim(new(broadcast.POIArena), vr, pois, a)
		}
		for i := range orig {
			if pois[i] != orig[i] {
				t.Fatalf("attack %v mutated input POI %d: %v -> %v", a, i, orig[i], pois[i])
			}
		}
	}
}

// AttackNone returns the claim as given, a nil POI set included, and
// counts no lie.
func TestAttackClaimNilAndNoneIdentity(t *testing.T) {
	vr, pois := testClaim()
	in := New(1, Profile{})
	cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, AttackNone)
	if cvr != vr || &cpois[0] != &pois[0] {
		t.Fatal("AttackNone is not the identity")
	}
	if cvr, cpois = in.AttackClaim(new(broadcast.POIArena), vr, nil, AttackNone); cvr != vr || cpois != nil {
		t.Fatal("AttackNone on a nil POI set is not the identity")
	}
	if in.lieSeq != 0 || !sameStream(in, newRefInjector(1, Profile{})) {
		t.Fatal("AttackNone told a lie or drew from the stream")
	}
}

// AttackMix must cycle deterministically through all four concrete lies.
func TestAttackMixCycles(t *testing.T) {
	in := New(5, Profile{ByzantineRate: 1, Attack: AttackMix})
	vr, pois := testClaim()
	sawInflate, sawOmit := false, false
	for i := 0; i < 4; i++ {
		cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, AttackMix)
		if cvr != vr {
			sawInflate = true
		}
		if len(cpois) < len(pois) {
			sawOmit = true
		}
	}
	if !sawInflate || !sawOmit {
		t.Fatalf("mix cycle missed attacks: inflate=%v omit=%v", sawInflate, sawOmit)
	}
	if in.lieSeq != 4 {
		t.Fatalf("told %d lies, want 4", in.lieSeq)
	}
}

func TestAttackClaimDeterministic(t *testing.T) {
	run := func() ([]geom.Rect, [][]broadcast.POI) {
		in := New(42, Profile{ByzantineRate: 0.3, Attack: AttackMix})
		var rects []geom.Rect
		var sets [][]broadcast.POI
		vr, pois := testClaim()
		for i := 0; i < 16; i++ {
			cvr, cpois := in.AttackClaim(new(broadcast.POIArena), vr, pois, AttackMix)
			rects = append(rects, cvr)
			sets = append(sets, cpois)
		}
		return rects, sets
	}
	r1, s1 := run()
	r2, s2 := run()
	for i := range r1 {
		if r1[i] != r2[i] || len(s1[i]) != len(s2[i]) {
			t.Fatalf("claim %d diverged across identical seeds", i)
		}
		for j := range s1[i] {
			if s1[i][j] != s2[i][j] {
				t.Fatalf("claim %d POI %d diverged: %v vs %v", i, j, s1[i][j], s2[i][j])
			}
		}
	}
}

func TestParseAttackRoundTrip(t *testing.T) {
	for _, a := range []Attack{AttackNone, AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix} {
		got, err := ParseAttack(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAttack(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if _, err := ParseAttack("bogus"); err == nil {
		t.Fatal("ParseAttack accepted bogus attack")
	}
	if a, err := ParseAttack(""); err != nil || a != AttackNone {
		t.Fatalf("ParseAttack(\"\") = %v, %v; want AttackNone", a, err)
	}
}

func TestByzantineProfileNormalizeValidate(t *testing.T) {
	p := Profile{ByzantineRate: 0.4}.Normalized()
	if p.Attack != AttackMix {
		t.Fatalf("Normalized did not default Attack to mix: %v", p.Attack)
	}
	p = Profile{Attack: AttackFabricate}.Normalized()
	if p.Attack != AttackNone {
		t.Fatalf("Normalized kept Attack %v with zero byzantine rate", p.Attack)
	}
	if err := (Profile{ByzantineRate: 1.5}).Validate(); err == nil {
		t.Fatal("Validate accepted ByzantineRate > 1")
	}
	if err := (Profile{Attack: Attack(99)}).Validate(); err == nil {
		t.Fatal("Validate accepted unknown Attack")
	}
	if err := (Profile{ByzantineRate: 0.5, Attack: AttackShift}).Validate(); err != nil {
		t.Fatalf("Validate rejected valid byzantine profile: %v", err)
	}
	// Byzantine peers without channel faults must not flip the fault
	// layer's Enabled (it gates retries and the fault-path plumbing).
	if (Profile{ByzantineRate: 0.5, Attack: AttackMix}).Enabled() {
		t.Fatal("ByzantineRate alone flipped Profile.Enabled")
	}
}
