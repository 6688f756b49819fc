//go:build !race

package sim

import (
	"testing"

	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// An armed query whose screen splits nothing and audits nothing costs
// the trust stage no allocation: the oracle is bound once on the World,
// the contributions and the screened peers live in query scratch, and
// every result shares its contribution's POIs.
func TestTrustScreenAdapterAllocFree(t *testing.T) {
	p := LACity().Scaled(1).WithDuration(0.05)
	p.AuditRate = 0.1
	p.Seed = 3
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	var peers []core.PeerData
	w.qs.origins = w.qs.origins[:0]
	for i := 0; i < 8; i++ {
		x := 0.1 * float64(i)
		vr := geom.NewRect(x, x, x+0.5, x+0.5)
		peers = append(peers, core.PeerData{VR: vr, POIs: w.poisInRect(0, vr)})
		w.qs.origins = append(w.qs.origins, origin{peer: i})
	}
	var out []core.PeerData
	screen := func() { out, _, _ = w.trustScreen(0, peers, 0, false) } // dark downlink: no audit fits
	screen()
	if allocs := testing.AllocsPerRun(100, screen); allocs != 0 {
		t.Fatalf("trustScreen allocated %v times per query", allocs)
	}
	if len(out) != len(peers) {
		t.Fatalf("%d screened peers, want %d", len(out), len(peers))
	}
	// With the downlink up audits run through the bound oracle.
	_, _, rep := w.trustScreen(0, peers, 0, true)
	for i := 0; i < 200 && rep.Audits == 0; i++ {
		_, _, rep = w.trustScreen(0, peers, 0, true)
	}
	if rep.Audits == 0 || rep.AuditFailures != 0 {
		t.Fatalf("bound oracle: %+v", rep)
	}
}
