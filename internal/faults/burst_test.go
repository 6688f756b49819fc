package faults

import (
	"math"
	"testing"
)

func TestBurstEnabledGates(t *testing.T) {
	if (Profile{}).BurstEnabled() {
		t.Fatal("zero profile must not arm the fading chain")
	}
	if (Profile{BurstBadLoss: 0.5}).BurstEnabled() {
		t.Fatal("bad loss without dwell must not arm")
	}
	if (Profile{BurstBadSlots: 4}).BurstEnabled() {
		t.Fatal("dwell without bad loss must not arm")
	}
	if !(Profile{BurstBadLoss: 0.5, BurstBadSlots: 4}).BurstEnabled() {
		t.Fatal("bad loss + dwell must arm")
	}
	if (Profile{}).BlackoutEnabled() {
		t.Fatal("zero profile must not arm blackouts")
	}
	if !(Profile{BlackoutPeriodSec: 300, BlackoutDurationSec: 30}).BlackoutEnabled() {
		t.Fatal("period + duration must arm blackouts")
	}
}

func TestBurstNormalizedDefaults(t *testing.T) {
	p := Profile{BurstBadLoss: 0.8, BurstBadSlots: 4}.Normalized()
	if p.BurstGoodSlots != 36 {
		t.Fatalf("good dwell default = %v, want 9x bad = 36", p.BurstGoodSlots)
	}
	if p.MaxRetries != DefaultMaxRetries {
		t.Fatalf("burst-armed profile must default retries, got %d", p.MaxRetries)
	}
	// A dwell below one slot rounds up to one, and so does the good dwell
	// it implies.
	p = Profile{BurstBadLoss: 0.8, BurstBadSlots: 0.05}.Normalized()
	if p.BurstBadSlots != 1 || p.BurstGoodSlots != 9 {
		t.Fatalf("sub-slot dwells = %v bad, %v good; want 1 and 9", p.BurstBadSlots, p.BurstGoodSlots)
	}
	// Zero is no default: one knob of each pair alone leaves the model
	// disarmed, as the two -h lines say.
	for _, q := range []Profile{
		{BurstBadLoss: 0.9},
		{BurstBadSlots: 4},
	} {
		if q.Normalized().BurstEnabled() {
			t.Errorf("%+v armed the fading chain", q)
		}
	}
	for _, q := range []Profile{
		{BlackoutPeriodSec: 60},
		{BlackoutDurationSec: 10},
	} {
		if q.Normalized().BlackoutEnabled() || NewBlackout(1, q) != nil {
			t.Errorf("%+v armed blackout windows", q)
		}
	}
}

func TestBurstValidate(t *testing.T) {
	nan := math.NaN()
	bad := []Profile{
		{BurstBadLoss: nan},
		{BurstBadLoss: -0.1},
		{BurstBadLoss: 1.5},
		{BurstBadSlots: nan},
		{BurstGoodSlots: -1},
		{BlackoutPeriodSec: nan},
		{BlackoutDurationSec: -5},
		{BlackoutPeriodSec: 10, BlackoutDurationSec: 20},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid profile %+v", i, p)
		}
	}
	ok := Profile{BurstBadLoss: 1, BurstBadSlots: 8, BurstGoodSlots: 100,
		BlackoutPeriodSec: 300, BlackoutDurationSec: 30}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected valid burst profile: %v", err)
	}
}

// TestBurstZeroKnobNoDraws pins the layering contract: with the burst
// knobs zero, the chain is nil, Sync and the per-frame kill make no
// draws, and the legacy stream produces the same sequence as an
// injector that never heard of bursts.
func TestBurstZeroKnobNoDraws(t *testing.T) {
	legacy := Profile{RequestLoss: 0.3, ReplyLoss: 0.2, ReplyCorrupt: 0.1}
	a := New(42, legacy)
	b := New(42, legacy)
	for i := 0; i < 500; i++ {
		if flips := b.Sync(int64(i)); flips != 0 { // must be a no-op
			t.Fatalf("draw %d: an unarmed chain flipped %d times", i, flips)
		}
		ha, _ := a.RequestHeard()
		hb, fadedReq := b.RequestHeard()
		if ha != hb {
			t.Fatalf("draw %d: RequestHeard diverged with inert Sync", i)
		}
		fa, _ := a.ReplyFate()
		fb, fadedRep := b.ReplyFate()
		if fa != fb {
			t.Fatalf("draw %d: ReplyFate diverged with inert Sync", i)
		}
		if fadedReq || fadedRep {
			t.Fatalf("draw %d: an unarmed chain faded a frame", i)
		}
	}
	if b.ChannelImpaired() || b.DeepFade() {
		t.Fatal("zero-knob injector reports an impaired channel")
	}
}

// TestBurstLegacyStreamUnperturbed pins that arming the chain does not
// shift the legacy stream: the legacy Bernoulli decisions of an armed
// injector match a chain-free injector draw for draw.
func TestBurstLegacyStreamUnperturbed(t *testing.T) {
	legacy := Profile{RequestLoss: 0.3}
	armed := legacy
	armed.BurstBadLoss = 1
	armed.BurstBadSlots = 8
	armed.BurstGoodSlots = 8
	a := New(7, legacy)
	b := New(7, armed)
	heardA, heardB, faded := 0, 0, 0
	for i := 0; i < 2000; i++ {
		b.Sync(int64(i))
		if h, _ := a.RequestHeard(); h {
			heardA++
		}
		h, f := b.RequestHeard()
		if h {
			heardB++
		}
		if f {
			faded++
		}
	}
	// The armed injector's legacy unheard count is a subset relation:
	// every legacy kill also happened on the armed side (same stream),
	// so armed hears at most as often.
	if heardB > heardA {
		t.Fatalf("armed injector heard more (%d) than legacy (%d): legacy stream shifted",
			heardB, heardA)
	}
	if faded == 0 {
		t.Fatal("armed chain with BadLoss=1 never killed a frame")
	}
}

// TestBurstDeterminism: identical seeds give identical chain behavior,
// different seeds give a different kill pattern.
func TestBurstDeterminism(t *testing.T) {
	p := Profile{BurstBadLoss: 0.9, BurstBadSlots: 6, BurstGoodSlots: 20}
	run := func(seed int64) []bool {
		in := New(seed, p)
		out := make([]bool, 0, 800)
		for slot := int64(0); slot < 400; slot++ {
			in.Sync(slot)
			heard, _ := in.RequestHeard()
			fate, _ := in.ReplyFate()
			out = append(out, heard, fate == FateDeliver)
		}
		return out
	}
	a, b, c := run(1), run(1), run(2)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("identical seeds diverged")
	}
	if !diff {
		t.Fatal("different seeds produced identical kill pattern")
	}
}

// TestBurstDwellMeans drives the chain over a long slot horizon and
// checks the realized duty cycle and dwell means sit near the geometric
// targets.
func TestBurstDwellMeans(t *testing.T) {
	p := Profile{BurstBadLoss: 1, BurstBadSlots: 10, BurstGoodSlots: 40}
	in := New(99, p)
	badSlots, flips := 0, int64(0)
	const horizon = 200000
	for slot := int64(0); slot < horizon; slot++ {
		flips += in.Sync(slot)
		if in.ChannelImpaired() {
			badSlots++
		}
	}
	duty := float64(badSlots) / horizon
	if duty < 0.15 || duty > 0.25 {
		t.Fatalf("bad-state duty cycle %.3f, want ~0.20", duty)
	}
	if flips == 0 {
		t.Fatal("chain never transitioned over 200k slots")
	}
	meanDwell := float64(horizon) / float64(flips)
	if meanDwell < 20 || meanDwell > 30 {
		t.Fatalf("mean dwell %.1f slots, want ~25 (=(10+40)/2)", meanDwell)
	}
}

func TestDeepFadeClassification(t *testing.T) {
	// Bad loss at the threshold: bad state must read as deep fade.
	deep := Profile{BurstBadLoss: DeepFadeLoss, BurstBadSlots: 1e6, BurstGoodSlots: 1}
	in := New(5, deep)
	// Walk until the chain flips to bad (good dwell mean 1 slot).
	for slot := int64(0); slot < 1000 && !in.ChannelImpaired(); slot++ {
		in.Sync(slot)
	}
	if !in.ChannelImpaired() {
		t.Fatal("chain never entered bad state")
	}
	if !in.DeepFade() {
		t.Fatal("bad state at DeepFadeLoss must classify as deep fade")
	}
	// A mild fade is impaired but not deep.
	mild := Profile{BurstBadLoss: 0.5, BurstBadSlots: 1e6, BurstGoodSlots: 1}
	in2 := New(5, mild)
	for slot := int64(0); slot < 1000 && !in2.ChannelImpaired(); slot++ {
		in2.Sync(slot)
	}
	if !in2.ChannelImpaired() || in2.DeepFade() {
		t.Fatalf("mild fade misclassified: impaired=%v deep=%v",
			in2.ChannelImpaired(), in2.DeepFade())
	}
}

func TestBlackoutSchedule(t *testing.T) {
	p := Profile{BlackoutPeriodSec: 300, BlackoutDurationSec: 30}
	b := NewBlackout(42, p)
	if b == nil {
		t.Fatal("armed profile must build a schedule")
	}
	if NewBlackout(42, Profile{}) != nil {
		t.Fatal("zero profile must not build a schedule")
	}
	var nilB *Blackout
	if nilB.Down(3, 100) || nilB.Remaining(3, 100) != 0 {
		t.Fatal("nil schedule must always be up")
	}
	// Duty cycle per host is duration/period; windows recur with the
	// period; Remaining counts down inside a window.
	for host := 0; host < 20; host++ {
		down := 0
		const samples = 3000
		for i := 0; i < samples; i++ {
			sec := float64(i) * 0.5 // 1500 s = 5 periods
			if b.Down(host, sec) {
				down++
				rem := b.Remaining(host, sec)
				if rem <= 0 || rem > 30 {
					t.Fatalf("host %d sec %.1f: Remaining %v out of (0, 30]", host, sec, rem)
				}
				if b.Down(host, sec+rem+1e-9) {
					t.Fatalf("host %d sec %.1f: still down after Remaining elapsed", host, sec)
				}
			} else if b.Remaining(host, sec) != 0 {
				t.Fatalf("host %d sec %.1f: up but Remaining nonzero", host, sec)
			}
			// Periodicity.
			if b.Down(host, sec) != b.Down(host, sec+300) {
				t.Fatalf("host %d sec %.1f: schedule not periodic", host, sec)
			}
		}
		duty := float64(down) / samples
		if duty < 0.05 || duty > 0.15 {
			t.Fatalf("host %d blackout duty %.3f, want ~0.10", host, duty)
		}
	}
	// Phase offsets must spread hosts: not all hosts share window edges.
	down0 := b.Down(0, 0)
	spread := false
	for host := 1; host < 50; host++ {
		if b.Down(host, 0) != down0 {
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("all 50 hosts share the same blackout phase")
	}
	// Determinism across constructions; seed sensitivity.
	b2 := NewBlackout(42, p)
	b3 := NewBlackout(43, p)
	sameSeedEqual := true
	diffSeedDiffers := false
	for host := 0; host < 30; host++ {
		for i := 0; i < 100; i++ {
			sec := float64(i) * 3.1
			if b.Down(host, sec) != b2.Down(host, sec) {
				sameSeedEqual = false
			}
			if b.Down(host, sec) != b3.Down(host, sec) {
				diffSeedDiffers = true
			}
		}
	}
	if !sameSeedEqual {
		t.Fatal("same seed gave different schedules")
	}
	if !diffSeedDiffers {
		t.Fatal("different seeds gave identical schedules")
	}
}
