package faults

import (
	"bytes"
	"math"
	"testing"
)

func TestZeroProfileIsInert(t *testing.T) {
	var p Profile
	if p.Enabled() {
		t.Fatal("zero profile reports enabled")
	}
	in := New(1, p)
	for i := 0; i < 1000; i++ {
		if heard, faded := in.RequestHeard(); !heard || faded {
			t.Fatal("zero profile lost a request")
		}
		if f, faded := in.ReplyFate(); f != FateDeliver || faded {
			t.Fatalf("zero profile fate %v", f)
		}
		if in.ChurnDeparts() || in.ChurnReturns() || in.Sync(int64(i)) != 0 {
			t.Fatal("zero profile churned or flipped a chain")
		}
	}
	if !sameStream(in, newRefInjector(1, p)) {
		t.Fatal("zero profile drew from its stream")
	}
}

func TestNormalizedClampsAndDefaults(t *testing.T) {
	// Normalized no longer clamps: an out-of-range rate passes through
	// unchanged and Validate is what rejects it.
	p := Profile{RequestLoss: 2, ReplyLoss: -1, BroadcastLoss: 0.5}
	n := p.Normalized()
	if n.RequestLoss != 2 || n.ReplyLoss != -1 || n.BroadcastLoss != 0.5 {
		t.Errorf("rates changed: %+v", n)
	}
	if err := n.Validate(); err == nil {
		t.Errorf("out-of-range rates accepted: %+v", n)
	}
	if n.MaxRetries != DefaultMaxRetries {
		t.Errorf("MaxRetries defaulted to %d", n.MaxRetries)
	}
	// A zero profile gains no retry budget.
	if z := (Profile{}).Normalized(); z.MaxRetries != 0 {
		t.Errorf("zero profile MaxRetries %d", z.MaxRetries)
	}
	// An explicit budget survives normalization.
	if e := (Profile{ReplyLoss: 0.1, MaxRetries: 5}).Normalized(); e.MaxRetries != 5 {
		t.Errorf("explicit MaxRetries %d", e.MaxRetries)
	}
}

func TestValidate(t *testing.T) {
	good := Profile{RequestLoss: 0.1, ReplyLoss: 0.2, BroadcastLoss: 0.3, MaxRetries: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	bad := []Profile{
		{RequestLoss: -0.1},
		{ReplyLoss: 1.5},
		{ReplyTruncate: math.NaN()},
		{ReplyCorrupt: 2},
		{BroadcastLoss: -1},
		{MaxRetries: -1},
		{MaxRetries: 17},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := Profile{RequestLoss: 0.3, ReplyLoss: 0.2, ReplyTruncate: 0.1, ReplyCorrupt: 0.1}
	a, b := New(7, p), New(7, p)
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i)
	}
	var unheard, dropped int
	for i := 0; i < 500; i++ {
		ha, _ := a.RequestHeard()
		if hb, _ := b.RequestHeard(); ha != hb {
			t.Fatal("RequestHeard diverged")
		}
		fa, _ := a.ReplyFate()
		fb, _ := b.ReplyFate()
		if fa != fb {
			t.Fatal("ReplyFate diverged")
		}
		if !ha {
			unheard++
		}
		if fa == FateDrop {
			dropped++
		}
		// Mangle damages its frame in place: each injector gets a copy.
		ma, mb := append([]byte(nil), msg...), append([]byte(nil), msg...)
		if !bytes.Equal(a.Mangle(ma, fa), b.Mangle(mb, fb)) {
			t.Fatal("Mangle diverged")
		}
	}
	if unheard == 0 || dropped == 0 {
		t.Fatalf("fault processes never fired: %d unheard, %d dropped", unheard, dropped)
	}
}

func TestReplyFateRates(t *testing.T) {
	p := Profile{ReplyLoss: 0.2, ReplyTruncate: 0.1, ReplyCorrupt: 0.1}
	in := New(11, p)
	const n = 20000
	var fates [4]int
	for i := 0; i < n; i++ {
		f, faded := in.ReplyFate()
		if faded {
			t.Fatal("an unarmed chain faded a reply")
		}
		fates[f]++
	}
	check := func(fate ReplyFate, want float64) {
		got := float64(fates[fate]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v rate %.3f want %.2f", fate, got, want)
		}
	}
	check(FateDeliver, 0.6)
	check(FateDrop, 0.2)
	check(FateTruncate, 0.1)
	check(FateCorrupt, 0.1)
}

func TestMangle(t *testing.T) {
	in := New(13, Profile{ReplyTruncate: 0.5, ReplyCorrupt: 0.5})
	msg := make([]byte, 128)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	frame := make([]byte, len(msg))
	for trial := 0; trial < 200; trial++ {
		copy(frame, msg)
		tr := in.Mangle(frame, FateTruncate)
		if len(tr) >= len(msg) || len(tr) < 0 {
			t.Fatalf("truncation produced %d of %d bytes", len(tr), len(msg))
		}
		if !bytes.Equal(tr, msg[:len(tr)]) {
			t.Fatal("truncation changed surviving bytes")
		}
		copy(frame, msg)
		co := in.Mangle(frame, FateCorrupt)
		if len(co) != len(msg) {
			t.Fatalf("corruption changed length: %d", len(co))
		}
		if bytes.Equal(co, msg) {
			t.Fatal("corruption flipped no bits")
		}
		// The damage is done in place: nothing is copied.
		if &co[0] != &frame[0] || (len(tr) > 0 && &tr[0] != &frame[0]) {
			t.Fatal("Mangle copied the frame")
		}
	}
	// Delivery and drop leave the frame untouched.
	copy(frame, msg)
	if !bytes.Equal(in.Mangle(frame, FateDeliver), msg) ||
		!bytes.Equal(in.Mangle(frame, FateDrop), msg) {
		t.Fatal("deliver/drop mangled the frame")
	}
}

func TestFateStrings(t *testing.T) {
	if FateDeliver.String() != "deliver" || FateDrop.String() != "drop" ||
		FateTruncate.String() != "truncate" || FateCorrupt.String() != "corrupt" {
		t.Error("fate strings wrong")
	}
}
