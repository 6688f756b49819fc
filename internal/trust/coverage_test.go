package trust

import (
	"math"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Tests of the claim-coverage detection (DESIGN.md §11.5): the cases its
// closed-containment count can be fooled by, each held against the
// pre-kernel screen and the retired pair loop, and the pair loop as a
// fuzz oracle.

func poi(id int64, x, y float64) broadcast.POI { return broadcast.POI{ID: id, Pos: geom.Pt(x, y)} }

func claimOf(peer int, r geom.Rect, pois ...broadcast.POI) Contribution {
	return Contribution{Peer: peer, VR: r, POIs: pois}
}

func stale(c Contribution) Contribution { c.Stale = true; return c }

var negativeZero = math.Copysign(0, -1)

// coverageCases are single screens of strangers (nobody vouched, no audit
// affordable): each names what cross-validation must find in it.
var coverageCases = []struct {
	name             string
	contribs         []Contribution
	conflicts, stale int
}{
	{"agreeing overlap",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 1, 1), poi(2, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6), poi(2, 3, 3), poi(3, 5, 5))},
		0, 0},
	{"fabricated POI in the overlap",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 1, 1), poi(2, 3, 3), poi(7, 3.5, 3.5)),
			claimOf(1, geom.NewRect(2, 2, 6, 6), poi(2, 3, 3), poi(3, 5, 5))},
		1, 0},
	{"omitted POI witnessed by two others",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6)),
			claimOf(2, geom.NewRect(1, 1, 5, 5), poi(2, 3, 3))},
		2, 0},
	// Closed containment says the neighbour should list the POI; without a
	// strict overlap there is no overlap to disagree on.
	{"POI on the shared edge of touching regions",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 4, 2)),
			claimOf(1, geom.NewRect(4, 0, 8, 4))},
		0, 0},
	{"POI on the shared corner of touching regions",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4)),
			claimOf(1, geom.NewRect(4, 4, 8, 8), poi(1, 4, 4))},
		0, 0},
	{"POI on the edge of a strict overlap",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 4, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		1, 0},
	{"two disagreeing regions of one peer",
		[]Contribution{
			claimOf(3, geom.NewRect(0, 0, 4, 4), poi(1, 3, 3)),
			claimOf(3, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"two disagreeing regions of the own cache",
		[]Contribution{
			claimOf(Self, geom.NewRect(0, 0, 4, 4), poi(1, 3, 3)),
			claimOf(Self, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"one peer's disagreement next to a stranger's",
		[]Contribution{
			claimOf(3, geom.NewRect(0, 0, 4, 4), poi(1, 3, 3)),
			claimOf(3, geom.NewRect(2, 2, 6, 6)),
			claimOf(2, geom.NewRect(2.5, 2.5, 5, 5))},
		1, 0},
	{"POI listed twice in an agreeing claim",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3), poi(2, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6), poi(2, 3, 3))},
		0, 0},
	{"POI listed twice and denied",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3), poi(2, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		1, 0},
	{"one ID at two positions across claims",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6), poi(2, 3.5, 3))},
		1, 0},
	{"one ID at two positions, both listed by both",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3), poi(2, 3.5, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6), poi(2, 3.5, 3), poi(2, 3, 3))},
		0, 0},
	{"negative and positive zero are one position",
		[]Contribution{
			claimOf(0, geom.NewRect(-2, -2, 2, 2), poi(1, negativeZero, 1), poi(2, 1, 0)),
			claimOf(1, geom.NewRect(-1, -1, 3, 3), poi(1, 0, 1), poi(2, 1, negativeZero))},
		0, 0},
	{"negative zero region bounds",
		[]Contribution{
			claimOf(0, geom.Rect{Min: geom.Pt(negativeZero, negativeZero), Max: geom.Pt(4, 4)}, poi(1, 0, 0)),
			claimOf(1, geom.NewRect(-2, -2, 2, 2))},
		1, 0},
	{"NaN position is inside no region",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, math.NaN(), 3), poi(2, 3, math.NaN())),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"POI listed outside its own region",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(1, 5, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"zero-area region",
		[]Contribution{
			claimOf(0, geom.NewRect(3, 0, 3, 4), poi(1, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"NaN region bound",
		[]Contribution{
			claimOf(0, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(math.NaN(), 4)}, poi(1, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 0},
	{"unbounded region",
		[]Contribution{
			claimOf(0, geom.Rect{Min: geom.Pt(math.Inf(-1), math.Inf(-1)), Max: geom.Pt(math.Inf(1), math.Inf(1))}, poi(1, 3, 3)),
			claimOf(1, geom.NewRect(2, 2, 6, 6)),
			claimOf(2, geom.NewRect(0, 0, 4, 4), poi(1, 3, 3))},
		2, 0},
	{"stale against fresh",
		[]Contribution{
			stale(claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3))),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 1},
	{"stale against fresh beside a fresh conflict",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4), poi(2, 3, 3)),
			stale(claimOf(1, geom.NewRect(2, 2, 6, 6))),
			claimOf(2, geom.NewRect(1, 1, 5, 5))},
		1, 1},
	{"no POIs at all",
		[]Contribution{
			claimOf(0, geom.NewRect(0, 0, 4, 4)),
			claimOf(1, geom.NewRect(2, 2, 6, 6))},
		0, 0},
}

func noTruth(geom.Rect) []broadcast.POI { return nil }

func TestCrossValidationCases(t *testing.T) {
	for _, tc := range coverageCases {
		t.Run(tc.name, func(t *testing.T) {
			// Twice: the second screen meets the quarantine the first left.
			d := newDiffPair(3, Config{AuditRate: 0.5, convictStrikes: 100})
			for s := 0; s < 2; s++ {
				_, rep := d.screen(t, s, tc.contribs, noTruth, 0, 8)
				if rep.Conflicts != tc.conflicts || rep.StaleConflicts != tc.stale {
					t.Fatalf("screen %d: %d conflicts and %d stale, want %d and %d", s, rep.Conflicts, rep.StaleConflicts, tc.conflicts, tc.stale)
				}
			}
			if got, want := d.total.StaleConflicts, 2*tc.stale; got != want {
				t.Fatalf("summed StaleConflicts = %d, want %d", got, want)
			}
		})
	}
}

// The cross-pool dedup asks the claim table by ID: a tainted copy of a
// POI a vouched peer's result carries is dropped wherever the tainted
// peer puts it, and kept when nobody trusted carries that ID.
func TestDedupByIDThroughClaimTable(t *testing.T) {
	d := newDiffPair(5, Config{AuditRate: 1, maxAuditsPerQuery: 1, convictStrikes: 100})
	vouched := honest(0, geom.NewRect(0, 0, 6, 6)) // POIs 1, 2, 3
	d.screen(t, 0, []Contribution{vouched}, oracle, -1, 4)
	if !d.e.Vouched(0) {
		t.Fatal("fixture: peer 0 not vouched")
	}
	// Peer 1 is tainted: its copy of ID 3 sits elsewhere (outside peer
	// 0's region, so nobody disputes it), its ID 4 is its own.
	moved := claimOf(1, geom.NewRect(6.5, 6.5, 9.5, 9.5), poi(3, 8, 8), poi(4, 7, 7))
	out, _ := d.screen(t, 1, []Contribution{vouched, moved}, oracle, 0, 4)
	if len(out) != 2 || !out[1].Tainted || len(out[1].POIs) != 1 || out[1].POIs[0].ID != 4 {
		t.Fatalf("tainted result kept %+v, want only ID 4", out[1].POIs)
	}
}

// A screen is a function of the engine's logical state and its input,
// not of what its scratch went through: an engine whose claim table, grid
// and pair list were grown (and left dirty) by a far larger detection
// screens a sequence exactly as a fresh engine does.
func TestScreenIndependentOfScratchHistory(t *testing.T) {
	cfg := Config{AuditRate: 0.3, quarantineCycles: 40, vouchCycles: 60}
	fresh, grown := NewEngine(21, cfg, nil), NewEngine(21, cfg, nil)
	var big []Contribution
	for bw := newDiffWorld(8, 60, 20); len(big) < 300; {
		big = append(big, bw.contributions(60)...)
	}
	grown.slots = append(grown.slots[:0], slotsOf(big)...)
	grown.detectConflicts(big)
	if len(grown.conflicts) == 0 || cap(grown.cover.table) < 1024 {
		t.Fatalf("fixture: %d conflicts, table of %d", len(grown.conflicts), cap(grown.cover.table))
	}
	w := newDiffWorld(9, 30, 6)
	var total Report
	for s := 0; s < 400; s++ {
		contribs, budget := w.contributions(14), w.budget()
		want, wantRep := fresh.Screen(contribs, w.truth, budget)
		got, gotRep := grown.Screen(contribs, w.truth, budget)
		sameRows(t, got, want)
		sameConflicts(t, grown.conflicts, fresh.conflicts)
		if gotRep != wantRep {
			t.Fatalf("screen %d: report %+v, fresh engine %+v", s, gotRep, wantRep)
		}
		addReport(&total, wantRep)
		if cap(fresh.cover.table) >= cap(grown.cover.table) {
			t.Fatalf("screen %d: the fresh engine's table caught up (%d)", s, cap(fresh.cover.table))
		}
	}
	if total.Conflicts == 0 || total.Audits == 0 {
		t.Fatalf("sequence exercised too little: %+v", total)
	}
}

// fuzzCoord decodes one coordinate byte: a half-integer lattice around
// the origin (so bounds and positions coincide), the special values, and
// a sprinkling of off-lattice numbers.
func fuzzCoord(b byte) float64 {
	switch v := b % 48; {
	case v < 32:
		return float64(v)/2 - 3
	case v == 32:
		return negativeZero
	case v == 33:
		return math.NaN()
	case v == 34:
		return math.Inf(1)
	case v == 35:
		return math.Inf(-1)
	default:
		return float64(b) / 7
	}
}

// fuzzContribs decodes a contribution set: per contribution a peer byte
// (Self and four peers), a flag byte (bit 0 stale, bit 1 region taken as
// given instead of normalized, so inverted and empty regions occur), four
// region coordinates, a POI count (up to 7), then per POI an ID out of
// eight and two coordinates. Decoding stops where the bytes run out.
func fuzzContribs(data []byte) []Contribution {
	var out []Contribution
	for len(data) >= 7 && len(out) < 24 {
		c := Contribution{Peer: int(data[0]%5) - 1, Stale: data[1]&1 != 0}
		x0, y0, x1, y1 := fuzzCoord(data[2]), fuzzCoord(data[3]), fuzzCoord(data[4]), fuzzCoord(data[5])
		if c.VR = (geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x1, y1)}); data[1]&2 == 0 {
			c.VR = geom.NewRect(x0, y0, x1, y1)
		}
		n := int(data[6] % 8)
		data = data[7:]
		for ; n > 0 && len(data) >= 3; n-- {
			c.POIs = append(c.POIs, poi(int64(data[0]%8), fuzzCoord(data[1]), fuzzCoord(data[2])))
			data = data[3:]
		}
		out = append(out, c)
	}
	return out
}

// slotsOf is Screen's slot pass with nobody quarantined.
func slotsOf(contribs []Contribution) []slot {
	slots := make([]slot, len(contribs))
	for i, c := range contribs {
		slots[i] = slot{vr: c.VR, peer: c.Peer, ci: int32(i), stale: c.Stale}
	}
	return slots
}

// FuzzDetectConflicts holds the coverage check to the retired pair loop:
// the same conflicts, in the same order, with the same overlap bits, on
// one engine across inputs (so its scratch arrives dirty). The seed
// corpus in testdata/fuzz/FuzzDetectConflicts encodes coverageCases.
func FuzzDetectConflicts(f *testing.F) {
	e := NewEngine(1, Config{AuditRate: 0.5}, nil)
	var oracle pairOracle
	f.Fuzz(func(t *testing.T, data []byte) {
		contribs := fuzzContribs(data)
		e.slots = append(e.slots[:0], slotsOf(contribs)...)
		e.detectConflicts(contribs)
		sameConflicts(t, e.conflicts, oracle.detectConflicts(e.slots, contribs))
	})
}
