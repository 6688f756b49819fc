package faults

// Edge-case coverage for the fault primitives: degenerate frame sizes,
// validation boundaries, and backoff arithmetic.

import (
	"math"
	"slices"
	"testing"
)

func TestMangleEmptyFrame(t *testing.T) {
	in := New(1, Profile{ReplyTruncate: 0.5, ReplyCorrupt: 0.5})
	for _, fate := range []ReplyFate{FateDeliver, FateDrop, FateTruncate, FateCorrupt} {
		if got := in.Mangle(nil, fate); len(got) != 0 {
			t.Errorf("Mangle(nil, %v) = %v, want empty", fate, got)
		}
		if got := in.Mangle([]byte{}, fate); len(got) != 0 {
			t.Errorf("Mangle(empty, %v) = %v, want empty", fate, got)
		}
	}
}

func TestMangleOneByteFrame(t *testing.T) {
	in := New(2, Profile{ReplyTruncate: 0.5, ReplyCorrupt: 0.5})

	// Truncating a 1-byte frame can only cut to zero bytes: the cut point
	// is strictly interior, and a 1-byte message has no interior.
	orig := []byte{0xA5}
	if got := in.Mangle(orig, FateTruncate); len(got) != 0 {
		t.Errorf("truncated 1-byte frame has %d bytes, want 0", len(got))
	}
	if orig[0] != 0xA5 {
		t.Error("truncation modified the frame's bytes")
	}

	// Corrupting a 1-byte frame must flip at least one bit of that byte,
	// in place, and leave the length alone.
	got := in.Mangle(orig, FateCorrupt)
	if len(got) != 1 {
		t.Fatalf("corrupted 1-byte frame has %d bytes, want 1", len(got))
	}
	if &got[0] != &orig[0] {
		t.Error("corruption copied the frame")
	}
	if got[0] == 0xA5 {
		t.Error("corruption flipped an even number of identical bits back — no observable damage")
	}
}

func TestMangleIdentityFatesShareStorage(t *testing.T) {
	// Deliver and drop are identities: no copy, no draw.
	in := New(3, Profile{ReplyCorrupt: 0.5})
	msg := []byte{1, 2, 3}
	if got := in.Mangle(msg, FateDeliver); &got[0] != &msg[0] {
		t.Error("FateDeliver copied the frame")
	}
	if got := in.Mangle(msg, FateDrop); &got[0] != &msg[0] {
		t.Error("FateDrop copied the frame")
	}
}

func TestValidateBoundaries(t *testing.T) {
	// MaxRate is the inclusive bound of every Bernoulli loss knob, the one
	// their `max` tags carry: Validate is the only range check, so it must
	// reject what no layer below it clamps.
	for _, v := range []float64{0, 0.5, MaxRate} {
		p := Profile{RequestLoss: v, ReplyLoss: v, ReplyTruncate: v, ReplyCorrupt: v,
			BroadcastLoss: v, ChurnRate: v}
		if err := p.Validate(); err != nil {
			t.Errorf("rate %v rejected: %v", v, err)
		}
	}
	for i, p := range []Profile{
		{RequestLoss: 0.97}, // NewWorld used to run this at 0.95 while lbsq-sim -req-loss 0.97 exited 2
		{ReplyLoss: 1},
		{ReplyTruncate: 0.96},
		{ReplyCorrupt: 1},
		{BroadcastLoss: 0.951},
		{ChurnRate: 1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("rate above MaxRate accepted (case %d): %+v", i, p)
		}
	}
	// Population fractions and burst losses stay bounded by 1.
	if err := (Profile{ByzantineRate: 1, BurstBadLoss: 1}).Validate(); err != nil {
		t.Errorf("rate 1 rejected: %v", err)
	}
	// Negative, above-one, and NaN rates are rejected for every field.
	bad := []Profile{
		{RequestLoss: -0.001},
		{ReplyLoss: 1.001},
		{ReplyTruncate: -1},
		{ReplyCorrupt: math.NaN()},
		{BroadcastLoss: math.Inf(1)},
		{ChurnRate: -0.001},
		{ChurnRate: 1.5},
		{MaxRetries: -1},
		{MaxRetries: 17},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
	// Retry budget boundaries: 0 and 16 are the inclusive limits.
	if err := (Profile{MaxRetries: 16}).Validate(); err != nil {
		t.Errorf("MaxRetries 16 rejected: %v", err)
	}
}

func TestNormalizedClampsChurn(t *testing.T) {
	// Normalized no longer clamps churn; Validate rejects it out of range.
	for _, rate := range []float64{2, -1} {
		got := Profile{ChurnRate: rate}.Normalized()
		if got.ChurnRate != rate {
			t.Errorf("churn %v normalized to %v", rate, got.ChurnRate)
		}
		if err := got.Validate(); err == nil {
			t.Errorf("churn %v accepted", rate)
		}
	}
	// Churn alone enables the profile, so the retry budget defaults.
	got := Profile{ChurnRate: 0.1}.Normalized()
	if got.MaxRetries != DefaultMaxRetries {
		t.Errorf("churn-only profile got MaxRetries %d, want default %d",
			got.MaxRetries, DefaultMaxRetries)
	}
}

func TestReplyFateStringAllVariants(t *testing.T) {
	cases := map[ReplyFate]string{
		FateDeliver:   "deliver",
		FateDrop:      "drop",
		FateTruncate:  "truncate",
		FateCorrupt:   "corrupt",
		ReplyFate(99): "deliver", // unknown fates read as harmless delivery
		ReplyFate(-1): "deliver",
	}
	for fate, want := range cases {
		if got := fate.String(); got != want {
			t.Errorf("ReplyFate(%d).String() = %q, want %q", fate, got, want)
		}
	}
}

func TestBackoffSlotsTable(t *testing.T) {
	cases := []struct {
		attempt int
		want    int64
	}{
		{-1, 0}, {0, 0}, {1, 0}, // no wait before the first attempt
		{2, 2}, {3, 4}, {4, 8}, {5, 16}, // exponential ramp
		{6, 16}, {10, 16}, {64, 16}, {1 << 20, 16}, // capped, no overflow
	}
	for _, c := range cases {
		if got := BackoffSlots(c.attempt); got != c.want {
			t.Errorf("BackoffSlots(%d) = %d, want %d", c.attempt, got, c.want)
		}
	}
}

// Jitter stays in [0, n), and a non-positive n is safe: no wait, no draw.
func TestJitterBoundsAndNilSafety(t *testing.T) {
	in := New(5, Profile{RequestLoss: 0.5})
	if got := in.Jitter(0); got != 0 {
		t.Errorf("Jitter(0) = %d, want 0", got)
	}
	if got := in.Jitter(-4); got != 0 {
		t.Errorf("Jitter(-4) = %d, want 0", got)
	}
	if twin := New(5, Profile{RequestLoss: 0.5}); in.Jitter(1<<40) != twin.Jitter(1<<40) {
		t.Error("a non-positive Jitter drew from the stream")
	}
	for i := 0; i < 100; i++ {
		if got := in.Jitter(8); got < 0 || got >= 8 {
			t.Fatalf("Jitter(8) = %d outside [0, 8)", got)
		}
	}
}

func TestChurnDrawsAreCountedAndSeeded(t *testing.T) {
	a := New(6, Profile{ChurnRate: 0.5})
	b := New(6, Profile{ChurnRate: 0.5})
	var departsA, departsB []bool
	for i := 0; i < 50; i++ {
		departsA = append(departsA, a.ChurnDeparts())
		departsB = append(departsB, b.ChurnDeparts())
	}
	if !slices.Equal(departsA, departsB) {
		t.Fatal("identical seeds drew different churn sequences")
	}
	if !slices.Contains(departsA, true) {
		t.Error("50 draws at 50% churn drew zero departures")
	}

	// Zero churn: no departures, no returns, no draws.
	z := New(7, Profile{})
	if z.ChurnDeparts() || z.ChurnReturns() || !sameStream(z, newRefInjector(7, Profile{})) {
		t.Error("zero profile churned")
	}
}
