package trust

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
)

// diffWorld generates randomized contribution sets for the differential
// tests: a POI field with half of it on a half-integer grid (so POIs land
// exactly on region, overlap and piece boundaries — regions snapped to
// the integer grid touch without overlapping, with POIs on the shared
// edges and corners), a peer population whose low ids lie with the five
// faults attack profiles (several regions of one lying cache disagree
// with each other), and regions clustered around a wandering query point
// so that most of them overlap.
type diffWorld struct {
	rng   *rand.Rand
	inj   *faults.Injector
	db    []broadcast.POI
	peers int // peer ids are 0..peers-1
	liars int // ids below this lie on every claim
	// auditOnly, when positive, marks about one contribution in auditOnly
	// audit-only (no draw is made when it is zero).
	auditOnly int
}

var diffAttacks = []faults.Attack{faults.AttackFabricate, faults.AttackOmit,
	faults.AttackInflate, faults.AttackShift, faults.AttackMix}

func newDiffWorld(seed int64, peers, liars int) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorld{rng: rng, peers: peers, liars: liars,
		inj: faults.New(seed, faults.Profile{ByzantineRate: 1, Attack: faults.AttackMix})}
	for i := 0; i < 240; i++ {
		p := geom.Pt(rng.Float64()*16, rng.Float64()*16)
		if i%2 == 0 {
			p = geom.Pt(float64(rng.Intn(33))/2, float64(rng.Intn(33))/2)
		}
		w.db = append(w.db, broadcast.POI{ID: int64(i), Pos: p})
	}
	return w
}

func (w *diffWorld) truth(r geom.Rect) []broadcast.POI {
	var out []broadcast.POI
	for _, p := range w.db {
		if r.Contains(p.Pos) {
			out = append(out, p)
		}
	}
	return out
}

// region draws one verified region near c: free-form, or snapped to the
// integer grid (shared edges with its neighbors and with the POI grid),
// and now and then zero-area.
func (w *diffWorld) region(c geom.Point) geom.Rect {
	rng := w.rng
	x, y := c.X+rng.Float64()*4-3, c.Y+rng.Float64()*4-3
	r := geom.NewRect(x, y, x+0.5+rng.Float64()*3, y+0.5+rng.Float64()*3)
	switch rng.Intn(12) {
	case 0, 1, 2, 3:
		r = geom.NewRect(math.Floor(r.Min.X), math.Floor(r.Min.Y), math.Ceil(r.Max.X), math.Ceil(r.Max.Y))
	case 4:
		r.Max.X = r.Min.X // zero-area
	}
	return r
}

// contributions draws one screen's input.
func (w *diffWorld) contributions(maxN int) []Contribution {
	rng := w.rng
	c := geom.Pt(3+rng.Float64()*10, 3+rng.Float64()*10)
	n := rng.Intn(maxN + 1)
	out := make([]Contribution, 0, n)
	for len(out) < n {
		peer := rng.Intn(w.peers)
		if rng.Intn(14) == 0 {
			peer = Self
		}
		regions := 1
		if rng.Intn(6) == 0 {
			regions = 2 + rng.Intn(2) // several regions of one cache
		}
		for k := 0; k < regions && len(out) < n; k++ {
			vr := w.region(c)
			pois := w.truth(vr)
			rng.Shuffle(len(pois), func(i, j int) { pois[i], pois[j] = pois[j], pois[i] })
			con := Contribution{Peer: peer, VR: vr, POIs: pois}
			switch {
			case peer != Self && peer < w.liars:
				con.VR, con.POIs = w.inj.AttackClaim(new(broadcast.POIArena), vr, pois, diffAttacks[peer%len(diffAttacks)])
			case rng.Intn(10) == 0:
				// Epoch-stale: honestly reported, possibly diverged.
				con.Stale = true
				if len(pois) > 0 && rng.Intn(2) == 0 {
					con.POIs = pois[1:]
				}
			case rng.Intn(25) == 0:
				// A POI the region does not cover rides along.
				con.POIs = append(pois, w.db[rng.Intn(len(w.db))])
			case rng.Intn(25) == 0 && len(pois) > 0:
				con.POIs = append(pois, pois[0]) // listed twice
			case rng.Intn(25) == 0 && len(pois) > 0:
				// One ID at a second position inside the region.
				con.POIs = append(pois, broadcast.POI{ID: pois[0].ID, Pos: vr.Center()})
			case rng.Intn(25) == 0:
				// A position no rectangle contains.
				con.POIs = append(pois, broadcast.POI{ID: int64(rng.Intn(len(w.db))), Pos: geom.Pt(math.NaN(), vr.Min.Y)})
			case rng.Intn(8) == 0:
				// The same claim with its zeros negative: still the same claim.
				con.VR.Min.X, con.VR.Min.Y = negZero(vr.Min.X), negZero(vr.Min.Y)
				con.POIs = slices.Clone(pois)
				for i := range con.POIs {
					con.POIs[i].Pos = geom.Pt(negZero(con.POIs[i].Pos.X), negZero(con.POIs[i].Pos.Y))
				}
			}
			if w.auditOnly > 0 && rng.Intn(w.auditOnly) == 0 {
				con.AuditOnly = true
			}
			out = append(out, con)
		}
	}
	return out
}

// negZero returns v with a zero made negative.
func negZero(v float64) float64 {
	if v == 0 {
		return negativeZero
	}
	return v
}

func (w *diffWorld) budget() int64 {
	switch w.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(2 + w.rng.Intn(8)) // affords one or two audits
	default:
		return -1
	}
}

func cloneContribs(in []Contribution) []Contribution {
	out := make([]Contribution, len(in))
	for i, c := range in {
		out[i] = c
		out[i].POIs = append([]broadcast.POI(nil), c.POIs...)
	}
	return out
}

func sameContribs(a, b []Contribution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Peer != b[i].Peer || !sameBits(a[i].VR, b[i].VR) || a[i].Stale != b[i].Stale ||
			a[i].AuditOnly != b[i].AuditOnly || !samePOIs(a[i].POIs, b[i].POIs) {
			return false
		}
	}
	return true
}

// samePOIs compares IDs and position bits, so a NaN equals itself and the
// two zeros differ: both screens copy POIs from one input.
func samePOIs(a, b []broadcast.POI) bool {
	f := math.Float64bits
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || f(a[i].Pos.X) != f(b[i].Pos.X) || f(a[i].Pos.Y) != f(b[i].Pos.Y) {
			return false
		}
	}
	return true
}

func sameBits(a, b geom.Rect) bool {
	f := math.Float64bits
	return f(a.Min.X) == f(b.Min.X) && f(a.Min.Y) == f(b.Min.Y) && f(a.Max.X) == f(b.Max.X) && f(a.Max.Y) == f(b.Max.Y)
}

// sameRows requires equal order, region bits, POI order and taint (a nil
// and an empty POI list are the same list).
func sameRows(t *testing.T, got, want []core.PeerData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, reference %d\n got  %+v\n want %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tainted != w.Tainted || !sameBits(g.VR, w.VR) || !samePOIs(g.POIs, w.POIs) {
			t.Fatalf("row %d = %+v, reference %+v", i, g, w)
		}
	}
}

// diffPair is the production engine and the reference, built from one
// seed, each behind a breaker set of its own. With sets set the reference
// subtracts every live rectangle in insertion order, and each row's pieces
// are compared with the outline's as point sets (sameTilings); the rows
// themselves, and everything else, must be equal as ever.
type diffPair struct {
	e      *Engine
	ref    *refEngine
	eb, rb *p2p.BreakerSet
	pairs  pairOracle
	sets   bool
	// total sums the production engine's reports: its cumulative activity.
	total Report
	// tiledDifferently says whether, in the last screen of a sets pair,
	// the outline tiled some row differently from the whole ledger.
	tiledDifferently bool
}

func newDiffPair(seed int64, cfg Config) *diffPair {
	bcfg := p2p.BreakerConfig{Threshold: 3}
	d := &diffPair{eb: p2p.NewBreakerSet(bcfg), rb: p2p.NewBreakerSet(bcfg)}
	d.e, d.ref = NewEngine(seed, cfg, d.eb), newRefEngine(seed, cfg, d.rb)
	return d
}

// screen runs one screen on both engines and compares every observable:
// results, report, the reputations and breakers of peers
// -1..peers-1, the quarantine ledger and its index — and the conflict list
// of the coverage check against the pair loop's, and the incremental
// outline against the one derived from the ledger. It returns the production
// engine's rows (valid until its next screen) and report.
func (d *diffPair) screen(t *testing.T, s int, contribs []Contribution, oracle Oracle, budget int64, peers int) ([]core.PeerData, Report) {
	t.Helper()
	e, ref := d.e, d.ref
	pristine := cloneContribs(contribs)
	want, wantRep := ref.screenReference(cloneContribs(contribs), oracle, budget)
	got, gotRep := e.Screen(contribs, oracle, budget)
	sameRows(t, got, want)
	if d.sets {
		d.tiledDifferently = false
		for i := range got {
			pieces := outlinePieces(e, got[i])
			sameTilings(t, pieces, ref.rowPieces[i])
			d.tiledDifferently = d.tiledDifferently || !slices.EqualFunc(pieces, ref.rowPieces[i], sameBits)
		}
	}
	if !sameContribs(contribs, pristine) {
		t.Fatalf("screen %d wrote to its input", s)
	}
	if gotRep != wantRep {
		t.Fatalf("screen %d report = %+v, reference %+v", s, gotRep, wantRep)
	}
	addReport(&d.total, gotRep)
	sameConflicts(t, e.conflicts, d.pairs.detectConflicts(e.slots, contribs))
	for id := -1; id < peers; id++ {
		if e.Quarantined(id) != ref.Quarantined(id) || e.Vouched(id) != ref.Vouched(id) {
			t.Fatalf("screen %d peer %d: quarantined %v vouched %v, reference %v %v", s, id,
				e.Quarantined(id), e.Vouched(id), ref.Quarantined(id), ref.Vouched(id))
		}
		if d.eb.State(id) != d.rb.State(id) {
			t.Fatalf("screen %d peer %d: breaker %v, reference %v", s, id, d.eb.State(id), d.rb.State(id))
		}
	}
	if e.QuarantinedRects() != len(ref.quar) {
		t.Fatalf("screen %d: %d quarantined rects, reference %d", s, e.QuarantinedRects(), len(ref.quar))
	}
	for i, q := range e.quar[e.quarHead:] {
		if want := ref.quar[i]; !sameBits(q.r, want.r) || q.until != want.until {
			t.Fatalf("screen %d: quarantine entry %d = %+v, reference %+v", s, i, q, want)
		}
	}
	checkOutlineIs(t, e, ref.outline) // and the ledger's index
	if ref.touchMismatch != "" {
		t.Fatalf("screen %d: a claim's pieces differ from the retired cut's as point sets: %s", s, ref.touchMismatch)
	}
	return got, gotRep
}

// sameConflicts requires the same pairs in the same order with the same
// overlap bits.
func sameConflicts(t *testing.T, got, want []conflict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d conflicts, pair loop %d\n got  %+v\n want %+v", len(got), len(want), got, want)
	}
	for k := range got {
		if got[k].i != want[k].i || got[k].j != want[k].j || !sameBits(got[k].overlap, want[k].overlap) {
			t.Fatalf("conflict %d = %+v, pair loop %+v", k, got[k], want[k])
		}
	}
}

// runDifferential drives the production engine and the reference from one
// seed through `screens` screens and compares every observable after each.
func runDifferential(t *testing.T, w *diffWorld, cfg Config, seed int64, screens, maxN int) *diffPair {
	t.Helper()
	d := newDiffPair(seed, cfg)
	for s := 0; s < screens; s++ {
		d.screen(t, s, w.contributions(maxN), w.truth, w.budget(), w.peers)
		if s%64 == 63 || s == screens-1 {
			if a, b := d.e.rng.Float64(), d.ref.rng.Float64(); a != b {
				t.Fatalf("screen %d: next rng draw %v, reference %v", s, a, b)
			}
		}
	}
	return d
}

// TestScreenMatchesReference is the differential oracle for the whole
// screen (DESIGN.md §11.5): the scratch-based kernel and the verbatim
// pre-kernel body, one seed, thousands of consecutive screens, every
// observable equal after each. Every case also has claims that the
// retired cut — a hole that only touches a piece splits it — tiles
// differently, and each of them keeps the same point set.
func TestScreenMatchesReference(t *testing.T) {
	retiredCutDiffers := func(t *testing.T, ref *refEngine) {
		t.Helper()
		if ref.touchCuts == 0 {
			t.Fatal("no claim was tiled differently by the retired cut: the point-set check saw nothing")
		}
	}
	// Default horizons: vouching, strikes, convictions and decay all
	// cycle many times over.
	t.Run("lifecycle", func(t *testing.T) {
		d := runDifferential(t, newDiffWorld(1, 40, 8), Config{AuditRate: 0.15}, 11, 2200, 24)
		retiredCutDiffers(t, d.ref)
		c := d.total
		if c.Audits == 0 || c.AuditFailures == 0 || c.Conflicts == 0 || c.StaleConflicts == 0 || c.Convictions == 0 {
			t.Fatalf("lifecycle run exercised too little: %+v", c)
		}
	})
	// A sustained attack nobody is convicted for: long horizons, rare
	// audits and a strike limit out of reach, so unvouched disagreeing
	// pairs fill the rectangle quarantine to its cap and keep evicting.
	t.Run("cap", func(t *testing.T) {
		cfg := Config{AuditRate: 0.01, quarantineCycles: 4000, convictStrikes: 1 << 30}
		d := runDifferential(t, newDiffWorld(2, 300, 150), cfg, 12, 900, 20)
		retiredCutDiffers(t, d.ref)
		if d.e.QuarantinedRects() != maxQuarRects {
			t.Fatalf("quarantine holds %d rects, want the cap %d", d.e.QuarantinedRects(), maxQuarRects)
		}
		if d.total.Conflicts < 3*maxQuarRects {
			t.Fatalf("only %d conflicts: the cap was not overflowed enough to compact", d.total.Conflicts)
		}
	})
	// Everyone audited at once: vouched claimants outvote liars, dedup
	// drops from tainted pieces what trusted ones carry.
	t.Run("audited", func(t *testing.T) {
		d := runDifferential(t, newDiffWorld(3, 24, 4), Config{AuditRate: 0.9, maxAuditsPerQuery: 16, quarantineCycles: 20, vouchCycles: 40}, 13, 600, 16)
		retiredCutDiffers(t, d.ref)
	})
	// A third of the claims lie beyond a reach cut: audited in their turn,
	// never cross-validated, never returned.
	t.Run("auditOnly", func(t *testing.T) {
		w := newDiffWorld(4, 40, 8)
		w.auditOnly = 3
		d := runDifferential(t, w, Config{AuditRate: 0.3}, 14, 1500, 24)
		retiredCutDiffers(t, d.ref)
		if c := d.total; c.Audits == 0 || c.AuditFailures == 0 || c.Conflicts == 0 {
			t.Fatalf("audit-only run exercised too little: %+v", c)
		}
	})
}
