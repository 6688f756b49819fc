package sim

import (
	"math"
	"testing"

	"lbsq/internal/faults"
)

// faultyWorld builds a small dense world with the given fault profile.
func faultyWorld(t *testing.T, kind QueryKind, seed int64, prof faults.Profile) *World {
	t.Helper()
	p := LACity().Scaled(2).WithDuration(0.12)
	p.Kind = kind
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = kind == KNNQuery
	p.Faults = prof
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	return w
}

// sweepProfile is the acceptance-criteria configuration: 10% reply loss,
// 5% broadcast loss, plus some request loss and damage.
func sweepProfile() faults.Profile {
	return faults.Profile{
		RequestLoss:   0.05,
		ReplyLoss:     0.10,
		ReplyTruncate: 0.025,
		ReplyCorrupt:  0.025,
		BroadcastLoss: 0.05,
	}
}

// TestFaultDeterminism: two worlds with identical seed and identical fault
// profile must produce identical statistics — every fault draw comes from
// the seeded injector stream, never from wall-clock or map order.
func TestFaultDeterminism(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		a := faultyWorld(t, kind, 21, sweepProfile())
		b := faultyWorld(t, kind, 21, sweepProfile())
		sa, sb := a.Run(), b.Run()
		if sa != sb {
			t.Fatalf("%v: stats diverged under identical seed:\n%+v\nvs\n%+v", kind, sa, sb)
		}
		if !sameFaultStream(a, b) {
			t.Fatalf("%v: injector streams diverged", kind)
		}
		if err := a.SelfCheckErr(); err != nil {
			t.Fatalf("%v: self-check under faults: %v", kind, err)
		}
	}
}

// TestZeroProfileIsSeedBehavior: a zero fault profile must be bit-identical
// to the pre-fault simulator — same statistics as a world that never heard
// of the fault layer, with every fault counter zero — and the collector
// degenerates to the paper's ideal exchange: one request frame per query,
// no retry round, no backoff.
func TestZeroProfileIsSeedBehavior(t *testing.T) {
	zero := faultyWorld(t, KNNQuery, 22, faults.Profile{})
	plain := smallWorld(t, KNNQuery, 22)
	// No warm-up: PeerRequests tallies every query, Queries only counted ones.
	zero.warmupSec, plain.warmupSec = 0, 0
	sz, sp := zero.Run(), plain.Run()
	if sz != sp {
		t.Fatalf("zero profile drifted from seed behavior:\n%+v\nvs\n%+v", sz, sp)
	}
	if fresh := faults.New(zero.Params.Seed^faultSeedSalt, faults.Profile{}); zero.inj.Jitter(math.MaxInt64) != fresh.Jitter(math.MaxInt64) {
		t.Fatal("zero profile made fault draws")
	}
	if sz.Events("fault") != 0 || sz.PeerRetries != 0 || sz.BackoffSlots != 0 {
		t.Fatalf("zero profile reported fault events: %+v", sz)
	}
	if sz.PeerRequests != int64(sz.Queries) {
		t.Fatalf("%d requests for %d gathered queries, want one each", sz.PeerRequests, sz.Queries)
	}
	if err := zero.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultSweepStaysSound is the acceptance criterion: with reply loss,
// broadcast loss and damage all enabled, a full run with
// SelfCheck on reports zero exact-result mismatches, and every enabled
// fault process is visible in the statistics.
func TestFaultSweepStaysSound(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		w := faultyWorld(t, kind, 23, sweepProfile())
		s := w.Run()
		if err := w.SelfCheckErr(); err != nil {
			t.Fatalf("%v: exact result mismatch under faults: %v", kind, err)
		}
		if s.Queries == 0 {
			t.Fatalf("%v: no queries ran", kind)
		}
		if s.RequestsUnheard == 0 {
			t.Errorf("%v: request loss never fired", kind)
		}
		if s.RepliesDropped == 0 {
			t.Errorf("%v: reply loss never fired", kind)
		}
		if s.RepliesRejected == 0 {
			t.Errorf("%v: reply damage never rejected by CRC/structure checks", kind)
		}
		if s.Retransmissions == 0 && s.IndexRetries == 0 {
			t.Errorf("%v: broadcast loss never fired", kind)
		}
		if got := s.Events("fault"); got != s.RequestsUnheard+s.RepliesDropped+
			s.RepliesRejected+s.Retransmissions+s.IndexRetries {
			t.Errorf("%v: fault events = %d, not the counter sum", kind, got)
		}
	}
}

// TestRequestRetries: heavy request loss exercises the bounded retry
// budget — retries happen, are counted, and are priced into traffic.
func TestRequestRetries(t *testing.T) {
	prof := faults.Profile{RequestLoss: 0.8, MaxRetries: 3}
	w := faultyWorld(t, KNNQuery, 24, prof)
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.PeerRetries == 0 {
		t.Error("80% request loss caused no retries")
	}
	if s.RequestsUnheard == 0 {
		t.Error("80% request loss lost no receptions")
	}
	// Every retry is a re-broadcast: requests exceed counted queries'
	// first attempts by exactly the retry count.
	if s.PeerRequests <= s.PeerRetries {
		t.Errorf("requests %d not above retries %d", s.PeerRequests, s.PeerRetries)
	}

	// The retry budget bounds the attempts: MaxRetries 0 with an explicit
	// profile is normalized to the default, so compare two budgets.
	small := faults.Profile{RequestLoss: 0.8, MaxRetries: 1}
	w2 := faultyWorld(t, KNNQuery, 24, small)
	s2 := w2.Run()
	if s2.PeerRetries >= s.PeerRetries {
		t.Errorf("smaller budget retried more: %d (budget 1) vs %d (budget 3)",
			s2.PeerRetries, s.PeerRetries)
	}
}
