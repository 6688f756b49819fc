package trust

import "testing"

// TestLedgerMatchesReference holds the host-indexed reputation ledger to
// the reference's map on sparse host ids: each peer of the differential
// world is renamed to a far id, so the ledger grows in the middle of a
// run, past records a screen is about to strike, vouch or convict.
// Every observable of diffPair.screen, over every id up to the largest,
// agrees with the map after every screen.
func TestLedgerMatchesReference(t *testing.T) {
	w := newDiffWorld(5, 40, 8)
	d := newDiffPair(15, Config{AuditRate: 0.2})
	far := func(id int) int { return id*id*3 + id }
	for s := 0; s < 500; s++ {
		contribs := w.contributions(24)
		for i := range contribs {
			if contribs[i].Peer != Self {
				contribs[i].Peer = far(contribs[i].Peer)
			}
		}
		d.screen(t, s, contribs, w.truth, w.budget(), far(w.peers))
	}
	if c := d.total; c.Convictions == 0 || c.Audits == 0 || c.Conflicts == 0 {
		t.Fatalf("the run exercised too little: %+v", c)
	}
}
