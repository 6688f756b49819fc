//go:build !race

// Allocation gates of the damaged-reply and byzantine-claim kernels
// (skipped under the race detector, whose instrumentation skews
// AllocsPerRun).

package faults

import (
	"testing"

	"lbsq/internal/broadcast"
)

// Mangle damages the frame it is given: neither fate allocates.
func TestMangleAllocs(t *testing.T) {
	in := New(5, Profile{})
	frame := make([]byte, 300)
	for _, fate := range []ReplyFate{FateTruncate, FateCorrupt} {
		if allocs := testing.AllocsPerRun(200, func() { in.Mangle(frame, fate) }); allocs != 0 {
			t.Errorf("Mangle(%v) allocated %v times per call", fate, allocs)
		}
	}
}

// Once the arena has grown, a lie of every kind is cut from it without
// allocating.
func TestAttackClaimAllocs(t *testing.T) {
	vr, pois := testClaim()
	for _, a := range []Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix} {
		in := New(5, Profile{})
		var arena broadcast.POIArena
		claim := func() {
			arena.Rewind()
			for i := 0; i < 16; i++ {
				in.AttackClaim(&arena, vr, pois, a)
			}
		}
		claim()
		if allocs := testing.AllocsPerRun(100, claim); allocs != 0 {
			t.Errorf("%v: %v allocs per 16 claims on a warm arena", a, allocs)
		}
	}
}
