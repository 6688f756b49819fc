package trust

import (
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
)

// world is a tiny ground truth for screening tests.
var worldPOIs = []broadcast.POI{
	{ID: 1, Pos: geom.Pt(1, 1)},
	{ID: 2, Pos: geom.Pt(3, 3)},
	{ID: 3, Pos: geom.Pt(5, 5)},
	{ID: 4, Pos: geom.Pt(7, 7)},
	{ID: 5, Pos: geom.Pt(9, 9)},
}

func oracle(r geom.Rect) []broadcast.POI {
	var out []broadcast.POI
	for _, p := range worldPOIs {
		if r.Contains(p.Pos) {
			out = append(out, p)
		}
	}
	return out
}

// honest builds a truthful contribution for the region.
func honest(peer int, r geom.Rect) Contribution {
	return Contribution{Peer: peer, VR: r, POIs: oracle(r)}
}

// lying builds a contribution with one fabricated POI inside the region.
func lying(peer int, r geom.Rect, at geom.Point) Contribution {
	c := honest(peer, r)
	c.POIs = append(append([]broadcast.POI(nil), c.POIs...),
		broadcast.POI{ID: 1000 + int64(peer), Pos: at})
	return c
}

func newTestEngine(t *testing.T, cfg Config, bs *p2p.BreakerSet) *Engine {
	t.Helper()
	e := NewEngine(7, cfg, bs)
	if e == nil {
		t.Fatal("NewEngine returned nil for enabled config")
	}
	return e
}

// addReport sums r into sum, as the simulator sums each screen's report
// into its Stats: the cumulative activity of a sequence of screens.
func addReport(sum *Report, r Report) {
	sum.Audits += r.Audits
	sum.AuditFailures += r.AuditFailures
	sum.Conflicts += r.Conflicts
	sum.StaleConflicts += r.StaleConflicts
	sum.Convictions += r.Convictions
	sum.BreakerTrips += r.BreakerTrips
	sum.Tainted += r.Tainted
	sum.AuditSlots += r.AuditSlots
	sum.QuarantinedArea += r.QuarantinedArea
}

// A nil engine (the layer off) answers its accessors inertly, and a
// disabled config builds none.
func TestNilEnginePassthrough(t *testing.T) {
	var e *Engine
	if e.Quarantined(0) || e.Vouched(0) || e.QuarantinedRects() != 0 {
		t.Fatal("nil engine accessors not inert")
	}
	if NewEngine(1, Config{}, nil) != nil {
		t.Fatal("NewEngine built an engine for a disabled config")
	}
}

func TestConfigNormalized(t *testing.T) {
	c := Config{AuditRate: 0.5}.Normalized()
	if c.maxAuditsPerQuery != DefaultMaxAuditsPerQuery ||
		c.vouchCycles != DefaultVouchCycles ||
		c.quarantineCycles != DefaultQuarantineCycles ||
		c.convictStrikes != DefaultConvictStrikes ||
		c.auditBaseSlots != DefaultAuditBaseSlots ||
		c.auditPOIsPerSlot != DefaultAuditPOIsPerSlot {
		t.Fatalf("Normalized missed defaults: %+v", c)
	}
	if c.AuditRate != 0.5 {
		t.Fatalf("Normalized changed AuditRate to %v", c.AuditRate)
	}
}

// An audited honest peer becomes vouched; its later contributions are
// untainted while unaudited strangers stay tainted.
func TestAuditVouchesHonestPeer(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1}, nil)
	r := geom.NewRect(0, 0, 4, 4)
	out, rep := e.Screen([]Contribution{honest(0, r)}, oracle, -1)
	if rep.Audits != 1 || rep.AuditFailures != 0 {
		t.Fatalf("audit counts = %+v, want 1 pass", rep)
	}
	if len(out) != 1 || out[0].Tainted {
		t.Fatalf("audited honest contribution still tainted: %+v", out)
	}
	if !e.Vouched(0) {
		t.Fatal("peer not vouched after passed audit")
	}
	if rep.AuditSlots < DefaultAuditBaseSlots {
		t.Fatalf("audit slots %d below base cost", rep.AuditSlots)
	}
}

// An unaudited peer's contribution is tainted (demoted to the
// probabilistic path) but not dropped.
func TestUnvouchedPeerIsTainted(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001}, nil)
	r := geom.NewRect(0, 0, 4, 4)
	out, rep := e.Screen([]Contribution{honest(0, r)}, oracle, -1)
	if rep.Audits != 0 {
		t.Skip("improbable audit draw hit")
	}
	if len(out) != 1 || !out[0].Tainted || rep.Tainted != 1 {
		t.Fatalf("unvouched contribution not tainted: %+v rep=%+v", out, rep)
	}
}

// Self contributions are never audited and never tainted.
func TestSelfAlwaysTrusted(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1}, nil)
	out, rep := e.Screen([]Contribution{honest(Self, geom.NewRect(0, 0, 4, 4))}, oracle, -1)
	if rep.Audits != 0 {
		t.Fatalf("self contribution audited: %+v", rep)
	}
	if len(out) != 1 || out[0].Tainted {
		t.Fatalf("self contribution tainted: %+v", out)
	}
	if !e.Vouched(Self) || e.Quarantined(Self) {
		t.Fatal("self accessors wrong")
	}
}

// A failed audit convicts: contribution dropped, peer quarantined,
// breaker forced open.
func TestAuditFailureConvicts(t *testing.T) {
	bs := p2p.NewBreakerSet(p2p.BreakerConfig{Threshold: 3})
	e := newTestEngine(t, Config{AuditRate: 1}, bs)
	r := geom.NewRect(0, 0, 4, 4)
	out, rep := e.Screen([]Contribution{lying(0, r, geom.Pt(2, 2))}, oracle, -1)
	if rep.Audits != 1 || rep.AuditFailures != 1 || rep.Convictions != 1 || rep.BreakerTrips != 1 {
		t.Fatalf("conviction counts wrong: %+v", rep)
	}
	if len(out) != 0 {
		t.Fatalf("convicted contribution survived: %+v", out)
	}
	if !e.Quarantined(0) {
		t.Fatal("convicted peer not quarantined")
	}
	if bs.State(0) != p2p.BreakerOpen {
		t.Fatalf("conviction did not force the breaker open: %v", bs.State(0))
	}
	if rep.QuarantinedArea != r.Area() {
		t.Fatalf("QuarantinedArea = %v, want %v", rep.QuarantinedArea, r.Area())
	}
}

// Omission is convicted just like fabrication: the claimed set must
// exactly match the oracle.
func TestAuditCatchesOmission(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1}, nil)
	r := geom.NewRect(0, 0, 6, 6)
	c := honest(0, r)
	c.POIs = c.POIs[:len(c.POIs)-1] // hide one real POI
	_, rep := e.Screen([]Contribution{c}, oracle, -1)
	if rep.AuditFailures != 1 {
		t.Fatalf("omission not convicted: %+v", rep)
	}
}

// Overlapping contributions that disagree on the overlap conflict: both
// peers struck and unvouched, the overlap quarantined out of both — each
// row keeps its claim's region, and no row lists a POI strictly inside
// the overlap.
func TestCrossValidationConflict(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001}, nil)
	a := honest(0, geom.NewRect(0, 0, 6, 6))
	b := lying(1, geom.NewRect(4, 4, 10, 10), geom.Pt(5, 4.5)) // fake POI in the overlap
	out, rep := e.Screen([]Contribution{a, b}, oracle, -1)
	if rep.Conflicts != 1 {
		t.Fatalf("conflict not detected: %+v", rep)
	}
	overlap := geom.NewRect(4, 4, 6, 6)
	if len(out) != 2 || out[0].VR != a.VR || out[1].VR != b.VR {
		t.Fatalf("want one row per claim with the claim's region: %+v", out)
	}
	for _, r := range out {
		if !r.Tainted {
			t.Fatalf("conflicted peer's row untainted: %+v", r)
		}
		for _, p := range r.POIs {
			if !r.VR.Contains(p.Pos) {
				t.Fatalf("POI %v outside its row's region %v", p, r.VR)
			}
			if p.Pos.X > overlap.Min.X && p.Pos.X < overlap.Max.X && p.Pos.Y > overlap.Min.Y && p.Pos.Y < overlap.Max.Y {
				t.Fatalf("POI %v strictly inside the quarantined overlap survived", p)
			}
		}
	}
	if e.QuarantinedRects() != 1 {
		t.Fatalf("quarantine set size = %d, want 1", e.QuarantinedRects())
	}
	if rep.QuarantinedArea != overlap.Area() {
		t.Fatalf("QuarantinedArea = %v, want %v", rep.QuarantinedArea, overlap.Area())
	}
}

// A conflict between a vouched peer and an unvouched accuser strikes
// only the accuser: the vouch is audit-backed ground-truth evidence, so
// one lying neighbor can neither poison nor suppress an honest peer's
// trust, and the vouched claim stands unquarantined.
func TestVouchedSurvivesConflict(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, convictStrikes: 99}, nil)
	r := geom.NewRect(0, 0, 6, 6)
	e.Screen([]Contribution{honest(0, r)}, oracle, -1)
	if !e.Vouched(0) {
		t.Fatal("setup: peer 0 not vouched")
	}
	// Next screen: audit budget 0 so no one is re-audited; the liar
	// conflicts with vouched peer 0.
	a := honest(0, r)
	b := lying(1, geom.NewRect(4, 4, 10, 10), geom.Pt(5, 5.5))
	out, rep := e.Screen([]Contribution{a, b}, oracle, 0)
	if rep.Conflicts != 1 {
		t.Fatalf("no conflict: %+v", rep)
	}
	if !e.Vouched(0) {
		t.Fatal("vouched peer lost its vouch to an unvouched accuser")
	}
	if e.Vouched(1) {
		t.Fatal("accuser vouched")
	}
	if e.QuarantinedRects() != 0 || rep.QuarantinedArea != 0 {
		t.Fatalf("one-sided conflict quarantined the overlap: rects=%d area=%v",
			e.QuarantinedRects(), rep.QuarantinedArea)
	}
	if len(out) != 2 || out[0].Tainted || out[0].VR != r || len(out[0].POIs) != len(a.POIs) {
		t.Fatalf("vouched claim did not stand whole: %+v", out)
	}
}

// A passed audit forgives standing strikes: a peer struck by unvouched
// accusers is restored to full trust once the ground truth testifies
// for it.
func TestAuditForgivesStrikes(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, convictStrikes: 99, maxAuditsPerQuery: 1}, nil)
	a := honest(0, geom.NewRect(0, 0, 6, 6))
	b := lying(1, geom.NewRect(4, 4, 10, 10), geom.Pt(5, 4.4))
	// Budget 0: no audits, both claimants unvouched, both struck.
	e.Screen([]Contribution{a, b}, oracle, 0)
	if e.Vouched(0) {
		t.Fatal("setup: struck peer vouched")
	}
	// Peer 0 alone passes its audit: vouched, strikes forgiven.
	e.Screen([]Contribution{honest(0, geom.NewRect(0, 0, 6, 6))}, oracle, -1)
	if !e.Vouched(0) {
		t.Fatal("passed audit did not restore a struck peer")
	}
}

// convictStrikes accumulated conflicts convict without any audit.
func TestStrikesConvict(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001, convictStrikes: 2}, nil)
	var total Report
	for i := 0; i < 2; i++ {
		a := honest(0, geom.NewRect(0, 0, 6, 6))
		b := lying(1, geom.NewRect(4, 4, 10, 10), geom.Pt(5, 4.2))
		_, rep := e.Screen([]Contribution{a, b}, oracle, 0)
		addReport(&total, rep)
	}
	if !e.Quarantined(1) {
		t.Fatal("liar not convicted after repeated conflicts")
	}
	if total.Convictions < 1 {
		t.Fatalf("summed Convictions = %d", total.Convictions)
	}
}

// Quarantine decays: after quarantineCycles screens the peer is paroled
// (its contributions flow again, tainted until re-vouched).
func TestQuarantineDecays(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, quarantineCycles: 3}, nil)
	r := geom.NewRect(0, 0, 4, 4)
	e.Screen([]Contribution{lying(0, r, geom.Pt(2, 2))}, oracle, -1)
	if !e.Quarantined(0) {
		t.Fatal("liar not quarantined")
	}
	for i := 0; i < 3; i++ {
		out, _ := e.Screen([]Contribution{honest(0, r)}, oracle, 0)
		if e.Quarantined(0) && len(out) != 0 {
			t.Fatal("quarantined contribution survived")
		}
	}
	if e.Quarantined(0) {
		t.Fatal("quarantine did not decay")
	}
	out, _ := e.Screen([]Contribution{honest(0, r)}, oracle, 0)
	if len(out) != 1 || !out[0].Tainted {
		t.Fatalf("paroled peer should contribute a tainted row: %+v", out)
	}
}

// The slot budget gates audits: an unaffordable audit is skipped (the
// contribution stays tainted rather than blowing the deadline).
func TestAuditBudget(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1}, nil)
	r := geom.NewRect(0, 0, 4, 4)
	out, rep := e.Screen([]Contribution{honest(0, r)}, oracle, 1) // cost ≥ 2
	if rep.Audits != 0 || rep.AuditSlots != 0 {
		t.Fatalf("audit ran over budget: %+v", rep)
	}
	if len(out) != 1 || !out[0].Tainted {
		t.Fatalf("unaudited contribution should be tainted: %+v", out)
	}
	// Unlimited budget (-1) always affords the audit.
	_, rep = e.Screen([]Contribution{honest(0, r)}, oracle, -1)
	if rep.Audits != 1 {
		t.Fatalf("unlimited budget skipped the audit: %+v", rep)
	}
}

// maxAuditsPerQuery caps the per-screen audit count.
func TestAuditCap(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, maxAuditsPerQuery: 2}, nil)
	var contribs []Contribution
	for i := 0; i < 6; i++ {
		contribs = append(contribs, honest(i, geom.NewRect(0, 0, 4, 4)))
	}
	_, rep := e.Screen(contribs, oracle, -1)
	if rep.Audits != 2 {
		t.Fatalf("audits = %d, want cap 2", rep.Audits)
	}
}

// Cross-pool dedup: a POI vouched by an untainted contribution is
// dropped from tainted rows (core's dedup precondition).
func TestCrossPoolDedup(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, maxAuditsPerQuery: 1}, nil)
	r := geom.NewRect(0, 0, 4, 4)
	// Screen 1: vouch peer 0.
	e.Screen([]Contribution{honest(0, r)}, oracle, -1)
	// Screen 2: audit cap 1 hits peer 0 draw first; peer 1 shares the
	// same region unaudited.
	out, _ := e.Screen([]Contribution{honest(0, r), honest(1, r)}, oracle, 0)
	var trustedIDs, taintedIDs []int64
	for _, res := range out {
		for _, p := range res.POIs {
			if res.Tainted {
				taintedIDs = append(taintedIDs, p.ID)
			} else {
				trustedIDs = append(trustedIDs, p.ID)
			}
		}
	}
	for _, tid := range taintedIDs {
		for _, uid := range trustedIDs {
			if tid == uid {
				t.Fatalf("POI %d present in both trust pools", tid)
			}
		}
	}
}

// Two regions of one peer never conflict with each other.
func TestSamePeerRegionsDoNotConflict(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001}, nil)
	a := honest(0, geom.NewRect(0, 0, 6, 6))
	b := honest(0, geom.NewRect(4, 4, 10, 10))
	b.POIs = append(append([]broadcast.POI(nil), b.POIs...),
		broadcast.POI{ID: 999, Pos: geom.Pt(5, 5.2)})
	_, rep := e.Screen([]Contribution{a, b}, oracle, 0)
	if rep.Conflicts != 0 {
		t.Fatalf("same-peer regions conflicted: %+v", rep)
	}
}

// The byzantine invariant the whole subsystem rests on: a peer whose
// every claim is materially false can never become vouched, no matter
// how many screens run.
func TestByzantineNeverVouched(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.5, quarantineCycles: 2}, nil)
	r := geom.NewRect(0, 0, 6, 6)
	var total Report
	for i := 0; i < 200; i++ {
		_, rep := e.Screen([]Contribution{lying(3, r, geom.Pt(2, 2.5))}, oracle, -1)
		addReport(&total, rep)
		if e.Vouched(3) {
			t.Fatalf("byzantine peer vouched at screen %d", i)
		}
	}
	if total.AuditFailures == 0 {
		t.Fatal("no audit ever sampled the liar")
	}
}

// Determinism: identical seeds and call sequences produce identical
// screening decisions and summed reports.
func TestScreenDeterministic(t *testing.T) {
	run := func() ([]core.PeerData, Report) {
		e := NewEngine(99, Config{AuditRate: 0.4}, nil)
		var last []core.PeerData
		var total Report
		for i := 0; i < 50; i++ {
			contribs := []Contribution{
				honest(0, geom.NewRect(0, 0, 6, 6)),
				lying(1, geom.NewRect(4, 4, 10, 10), geom.Pt(5, 4.7)),
				honest(2, geom.NewRect(6, 6, 10, 10)),
			}
			var rep Report
			last, rep = e.Screen(contribs, oracle, 40)
			addReport(&total, rep)
		}
		return last, total
	}
	r1, c1 := run()
	r2, c2 := run()
	if c1 != c2 {
		t.Fatalf("summed reports diverged:\n%+v\n%+v", c1, c2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].VR != r2[i].VR || r1[i].Tainted != r2[i].Tainted || len(r1[i].POIs) != len(r2[i].POIs) {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
}

// A POI on the boundary between pieces of a cut claim is kept, once.
func TestBoundaryPOINotDuplicated(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001}, nil)
	// Conflict quarantines the central overlap; peer 2's region is then
	// cut around it, and its POI on a piece boundary must appear once.
	a := honest(0, geom.NewRect(3, 3, 5, 5))
	b := lying(1, geom.NewRect(4, 4, 6, 6), geom.Pt(4.5, 4.5))
	mid := Contribution{Peer: 2, VR: geom.NewRect(0, 0, 10, 10), POIs: []broadcast.POI{
		{ID: 77, Pos: geom.Pt(4, 2)}, // on a subtraction grid line
		{ID: 78, Pos: geom.Pt(1, 1)},
	}}
	out, rep := e.Screen([]Contribution{a, b, mid}, oracle, 0)
	if rep.Conflicts == 0 {
		t.Fatal("setup: no conflict")
	}
	seen := 0
	for _, r := range out {
		if r.VR != mid.VR {
			continue
		}
		for _, p := range r.POIs {
			if p.ID == 77 {
				seen++
			}
		}
	}
	if seen != 1 {
		t.Fatalf("boundary POI appeared %d times, want 1", seen)
	}
}

// A stale (superseded-epoch) contribution that disagrees with a fresh
// one is classified as reconciliation work, not lying: the conflict is
// amnestied (StaleConflicts, not Conflicts), neither peer is struck,
// and no overlap is quarantined. This keeps honest peers with outdated
// caches from being convicted under POI churn.
func TestStaleConflictAmnesty(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001, convictStrikes: 1}, nil)
	fresh := honest(0, geom.NewRect(0, 0, 6, 6))
	outdated := honest(1, geom.NewRect(4, 4, 10, 10))
	// The stale peer's cache predates a POI insert at (5, 4.5): its list
	// disagrees with the fresh peer's in the overlap.
	outdated.POIs = append(append([]broadcast.POI(nil), outdated.POIs...),
		broadcast.POI{ID: 500, Pos: geom.Pt(5, 4.5)})
	outdated.Stale = true
	out, rep := e.Screen([]Contribution{fresh, outdated}, oracle, -1)
	if rep.Conflicts != 0 || rep.StaleConflicts != 1 {
		t.Fatalf("stale disagreement misclassified: %+v", rep)
	}
	if e.QuarantinedRects() != 0 || rep.QuarantinedArea != 0 {
		t.Fatal("stale conflict quarantined an overlap")
	}
	if e.Quarantined(0) || e.Quarantined(1) {
		t.Fatal("stale conflict convicted a peer")
	}
	// The stale claim must still come through demoted, never exact.
	if len(out) != 2 || !out[1].Tainted {
		t.Fatalf("stale contribution passed untainted: %+v", out)
	}
}

// Stale contributions are exempt from spot audits: the region is known
// to be outdated, so an audit "failure" against current ground truth
// proves nothing about the peer's honesty (and must not convict it).
func TestStaleContributionNeverAudited(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1, convictStrikes: 1}, nil)
	c := honest(0, geom.NewRect(0, 0, 6, 6))
	// The outdated cache is missing POI 2 — an audit would see an
	// omission and convict.
	var kept []broadcast.POI
	for _, p := range c.POIs {
		if p.ID != 2 {
			kept = append(kept, p)
		}
	}
	c.POIs = kept
	c.Stale = true
	_, rep := e.Screen([]Contribution{c}, oracle, -1)
	if rep.Audits != 0 || rep.AuditFailures != 0 {
		t.Fatalf("stale contribution audited: %+v", rep)
	}
	if e.Quarantined(0) {
		t.Fatal("stale contribution convicted its peer")
	}
}

// The receiver cuts a superseded claim into repair pieces before the
// screen sees it (cache.ReconcileRegion). One lie makes one false piece;
// its siblings match the ground truth, and auditing one of them must not
// vouch the peer — the false piece would leave the same screen exact.
func TestRepairPiecesNeverVouch(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 1}, nil)
	var pieces []Contribution
	for x := 0.0; x < 12; x += 2 {
		c := honest(0, geom.NewRect(x, 0, x+2, 10))
		c.Repaired = true
		pieces = append(pieces, c)
	}
	// The lie sits in the last piece, past the per-screen audit cap: the
	// audits that would run all land on honest-looking siblings.
	last := &pieces[len(pieces)-1]
	last.POIs = append(last.POIs, broadcast.POI{ID: 1000, Pos: geom.Pt(11, 5)})

	out, rep := e.Screen(pieces, oracle, -1)
	if e.Vouched(0) {
		t.Fatal("peer vouched on the strength of a repair piece")
	}
	if rep.Audits != 0 {
		t.Fatalf("%d repair pieces audited, want none", rep.Audits)
	}
	if len(out) != len(pieces) {
		t.Fatalf("%d rows for %d pieces", len(out), len(pieces))
	}
	for _, r := range out {
		if !r.Tainted {
			t.Fatalf("piece %v of an unvouched peer came back exact", r.VR)
		}
	}
}
