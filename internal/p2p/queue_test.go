package p2p

import "testing"

// The admission ladder: Cap requests served, the busy band refused with
// BUSY, the overflow shed silently — and Reset restores full capacity.
func TestServiceQueueAdmissionLadder(t *testing.T) {
	q := NewServiceQueue(2)
	want := []ServiceVerdict{
		ServeOK, ServeOK, // capacity
		ServeBusy, ServeBusy, ServeBusy, ServeBusy, ServeBusy, ServeBusy, // busy band: 3×cap
		ServeDrop, ServeDrop, // saturation
	}
	for i, w := range want {
		if got := q.Admit(7); got != w {
			t.Fatalf("request %d: verdict %v, want %v", i, got, w)
		}
	}

	q.Reset()
	if got := q.Admit(7); got != ServeOK {
		t.Fatalf("post-reset verdict %v, want ServeOK", got)
	}
}

// Load is tracked per peer: saturating one peer must not consume another
// peer's capacity.
func TestServiceQueuePerPeerIsolation(t *testing.T) {
	q := NewServiceQueue(1)
	for i := 0; i < 10; i++ {
		q.Admit(1)
	}
	if got := q.Admit(2); got != ServeOK {
		t.Fatalf("fresh peer verdict %v, want ServeOK", got)
	}
}
