// The core algorithms over trust-screened rows. An external test package:
// internal/trust imports core for the rows it returns.
package core_test

import (
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/trust"
)

// TestByzantinePeerCannotPoisonWithTrust is the regression pair of
// TestByzantinePeerCanPoisonVerification: the same lying peer, the same
// query — but screened through the trust layer first. Whether the lie is
// caught immediately (audited, convicted, contribution dropped) or not
// (unaudited, contribution tainted), the poisoned answer can no longer
// claim verification: the documented vulnerability is now gated.
func TestByzantinePeerCannotPoisonWithTrust(t *testing.T) {
	db := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 6)},
		{ID: 2, Pos: geom.Pt(5, 8)},
	}
	oracle := func(r geom.Rect) []broadcast.POI {
		var out []broadcast.POI
		for _, p := range db {
			if r.Contains(p.Pos) {
				out = append(out, p)
			}
		}
		return out
	}
	lie := trust.Contribution{
		Peer: 0,
		VR:   geom.NewRect(0, 0, 10, 10),
		POIs: []broadcast.POI{db[1]},
	}
	for name, rate := range map[string]float64{"audited": 1, "unaudited": 1e-9} {
		eng := trust.NewEngine(1, trust.Config{AuditRate: rate}, nil)
		screened, rep := eng.Screen([]trust.Contribution{lie}, oracle, -1)
		res := core.NNVScratch(new(core.Scratch), geom.Pt(5, 5), screened, 1, 0.1)
		for _, e := range res.Heap.Entries() {
			if e.Verified {
				t.Fatalf("%s: trust-screened lie still verified %+v (report %+v)", name, e, rep)
			}
		}
		if rate == 1 {
			if rep.AuditFailures != 1 || len(screened) != 0 {
				t.Fatalf("audited lie not convicted: screened=%v rep=%+v", screened, rep)
			}
		} else if len(screened) != 1 || !screened[0].Tainted {
			t.Fatalf("unaudited lie not tainted: %+v", screened)
		}
	}
}

// TestByzantineSwarmCannotPoisonWithTrust generalizes the pair to the
// full attack-profile family: randomized worlds, a mix of honest and
// byzantine peers (every byzantine claim mangled by faults.AttackClaim),
// screened with audits on. Whatever survives screening, a verified entry
// must be the true nearest neighbor — lies may cost coverage (demotion
// to the probabilistic path), never correctness.
func TestByzantineSwarmCannotPoisonWithTrust(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	attacks := []faults.Attack{faults.AttackFabricate, faults.AttackOmit,
		faults.AttackInflate, faults.AttackShift, faults.AttackMix}
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(40)
		db := make([]broadcast.POI, n)
		for i := range db {
			db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
		}
		oracle := func(r geom.Rect) []broadcast.POI {
			var out []broadcast.POI
			for _, p := range db {
				if r.Contains(p.Pos) {
					out = append(out, p)
				}
			}
			return out
		}
		attack := attacks[trial%len(attacks)]
		inj := faults.New(int64(trial), faults.Profile{ByzantineRate: 0.5, Attack: attack})
		eng := trust.NewEngine(int64(trial), trust.Config{AuditRate: 0.5}, nil)

		var contribs []trust.Contribution
		for i := 0; i < 1+rng.Intn(6); i++ {
			cx, cy := rng.Float64()*10, rng.Float64()*10
			vr := geom.NewRect(cx, cy, cx+rng.Float64()*5, cy+rng.Float64()*5)
			var pois []broadcast.POI
			for _, p := range db {
				if vr.Contains(p.Pos) {
					pois = append(pois, p)
				}
			}
			if rng.Float64() < 0.5 { // byzantine host
				vr, pois = inj.AttackClaim(new(broadcast.POIArena), vr, pois, attack)
			}
			contribs = append(contribs, trust.Contribution{Peer: i, VR: vr, POIs: pois})
		}
		q := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		// Screen repeatedly (vouching builds up) and check every round.
		for round := 0; round < 4; round++ {
			peers, _ := eng.Screen(contribs, oracle, -1)
			res := core.NNVScratch(new(core.Scratch), q, peers, 1, 0.3)
			if res.Heap.VerifiedCount() == 0 {
				continue
			}
			got := res.Heap.Entries()[0]
			if !got.Verified {
				continue
			}
			bestD := -1.0
			for _, p := range db {
				if d := p.Pos.Dist(q); bestD < 0 || d < bestD {
					bestD = d
				}
			}
			if got.Dist != bestD || got.POI.ID >= faults.FabricatedIDBase {
				t.Fatalf("trial %d round %d attack %v: verified-wrong NN %+v (true d=%v)",
					trial, round, attack, got, bestD)
			}
		}
	}
}
