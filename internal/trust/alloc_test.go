//go:build !race

// Allocation gates of the screen kernel (skipped under the race
// detector, whose instrumentation skews AllocsPerRun).

package trust

import (
	"math/rand"
	"runtime"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// peers64 is internal/core's benchmark fixture as a screen's input: a
// 500-POI field on a 32×32 area and 64 truthful, heavily overlapping
// regions, one per peer id. The oracle is a lookup, so audits allocate
// nothing of their own.
func peers64() ([]Contribution, Oracle) {
	rng := rand.New(rand.NewSource(2))
	db := make([]broadcast.POI, 500)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	contribs := make([]Contribution, 64)
	truth := make(map[geom.Rect][]broadcast.POI, len(contribs))
	for i := range contribs {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		c := Contribution{Peer: i, VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				c.POIs = append(c.POIs, p)
			}
		}
		contribs[i], truth[vr] = c, c.POIs
	}
	return contribs, func(r geom.Rect) []broadcast.POI { return truth[r] }
}

// A steady-state honest screen with an empty quarantine allocates
// nothing: every row shares its contribution's POIs — with every peer
// vouched (audits running each screen) and with none vouched.
func TestScreenHonestSteadyStateAllocs(t *testing.T) {
	contribs, oracle := peers64()
	for name, cfg := range map[string]Config{
		"all-vouched":  {AuditRate: 1, maxAuditsPerQuery: len(contribs)},
		"none-vouched": {AuditRate: 1e-12},
	} {
		e := newTestEngine(t, cfg, nil)
		for i := 0; i < 4; i++ {
			e.Screen(contribs, oracle, -1)
		}
		var out []core.PeerData
		allocs := testing.AllocsPerRun(50, func() { out, _ = e.Screen(contribs, oracle, -1) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per screen, want 0", name, allocs)
		}
		if len(out) != len(contribs) || out[0].Tainted != (name == "none-vouched") {
			t.Fatalf("%s: %d rows, first %+v", name, len(out), out[0])
		}
		for i, r := range out {
			if !sharesStorage(r.POIs, contribs[i].POIs) {
				t.Fatalf("%s: row %d does not share its contribution's POIs", name, i)
			}
		}
	}
}

// When the contribution count doubles and then holds, the claim table,
// the grid's cell lists and the rest of the scratch regrow on the first
// larger screen and never again.
func TestScreenAllocsSettleAfterGrowth(t *testing.T) {
	contribs, oracle := peers64()
	e := newTestEngine(t, Config{AuditRate: 1e-12}, nil)
	half := contribs[:len(contribs)/2]
	for i := 0; i < 4; i++ {
		e.Screen(half, oracle, -1)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Screen(half, oracle, -1) }); allocs != 0 {
		t.Fatalf("%v allocs per screen of %d contributions, want 0", allocs, len(half))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Screen(contribs, oracle, -1)
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs {
		t.Fatal("fixture: doubling the contributions grew nothing")
	}
	if allocs := testing.AllocsPerRun(50, func() { e.Screen(contribs, oracle, -1) }); allocs != 0 {
		t.Fatalf("%v allocs per screen after the scratch regrew, want 0", allocs)
	}
}

// With the rectangle quarantine at its cap a screen still allocates
// nothing: the POIs a contribution the quarantine cut keeps are copied
// into the arena.
func TestScreenQuarantinedAllocsBoundedBySplits(t *testing.T) {
	contribs, oracle := peers64()
	e := newTestEngine(t, Config{AuditRate: 1e-12, quarantineCycles: 1 << 40}, nil)
	e.seq = 1
	rng := rand.New(rand.NewSource(9))
	var rep Report
	for e.QuarantinedRects() < maxQuarRects {
		x, y := rng.Float64()*32, rng.Float64()*32
		e.quarantineRect(geom.NewRect(x, y, x+0.1+rng.Float64()*0.4, y+0.1+rng.Float64()*0.4), &rep)
	}
	for i := 0; i < 4; i++ {
		e.Screen(contribs, oracle, -1)
	}
	var out []core.PeerData
	allocs := testing.AllocsPerRun(20, func() { out, _ = e.Screen(contribs, oracle, -1) })
	if len(out) != len(contribs) {
		t.Fatalf("fixture: %d rows for %d contributions", len(out), len(contribs))
	}
	split := 0
	for i, r := range out {
		if !sharesStorage(r.POIs, contribs[i].POIs) {
			split++
		}
	}
	if split == 0 {
		t.Fatal("fixture cut no POI out of any contribution")
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per screen for %d split contributions, want 0", allocs, split)
	}
	if e.QuarantinedRects() != maxQuarRects {
		t.Fatalf("quarantine decayed to %d during the run", e.QuarantinedRects())
	}
}

// Steady churn — every screen disputes one rectangle for the first time
// and lets one expire, in nests of three whose members arrive in varying
// order, so the outline loses members to a new container and gets them back
// when it leaves — allocates nothing once the ledger, its index and the
// outline have reached their size.
func TestScreenQuarantineChurnAllocFree(t *testing.T) {
	contribs, oracle := peers64()
	const cycles = 64
	e := newTestEngine(t, Config{AuditRate: 1e-12, quarantineCycles: cycles}, nil)
	var rep Report
	k, swallowed, resurfaced := 0, 0, 0
	screen := func() {
		// A place is taken again only after its last rectangle expired.
		n := k % (3 * cycles)
		x, y, inner := 12+1.5*float64(n/3%8), 12+1.5*float64(n/24), float64((n+n/3)%3)/4
		covered := e.QuarantinedRects() - len(e.outline)
		e.quarantineRect(geom.NewRect(x+inner, y+inner, x+1.4-inner, y+1.4-inner), &rep)
		swallowed += e.QuarantinedRects() - len(e.outline) - covered
		e.orphans = e.orphans[:0]
		e.Screen(contribs, oracle, -1)
		for _, i := range e.orphans {
			if !e.quar[i].covered {
				resurfaced++
			}
		}
		k++
	}
	for i := 0; i < 4*cycles; i++ {
		screen()
	}
	swallowed, resurfaced = 0, 0
	if allocs := testing.AllocsPerRun(3*cycles, screen); allocs != 0 {
		t.Fatalf("%v allocs per screen under churn, want 0", allocs)
	}
	if live := e.QuarantinedRects(); live != cycles-1 || swallowed < cycles/2 || resurfaced < cycles/2 {
		t.Fatalf("fixture: %d live rectangles, %d went under cover, %d resurfaced", live, swallowed, resurfaced)
	}
}

// A tainted contribution that loses a POI to the cross-pool dedup against
// a trusted one, and one the quarantine cuts, get their POIs copied into
// the engine's arena: once it is warm the screen allocates nothing.
func TestScreenDedupSplitAllocFree(t *testing.T) {
	e, contribs := aliasScene(t)
	var out []core.PeerData
	screen := func() { out, _ = e.Screen(contribs, oracle, 0) }
	screen()
	if allocs := testing.AllocsPerRun(100, screen); allocs != 0 {
		t.Errorf("%v allocs per screen, want 0", allocs)
	}
	if len(out) != len(contribs) {
		t.Fatalf("fixture: %d rows for %d contributions", len(out), len(contribs))
	}
	split, deduped := out[1], out[2]
	if len(split.POIs) != 1 || split.POIs[0].ID != 4 || sharesStorage(split.POIs, contribs[1].POIs) ||
		len(deduped.POIs) != 1 || deduped.POIs[0].ID != 4 || sharesStorage(deduped.POIs, contribs[2].POIs) {
		t.Fatalf("fixture lost its deduped or split row: %+v", out)
	}
}

// A peer screened for the first time costs no allocation once the ledger
// spans its id: its record is an array slot, not a map entry.
func TestScreenFirstSightAllocFree(t *testing.T) {
	contribs, oracle := peers64()
	e := newTestEngine(t, Config{AuditRate: 1e-12}, nil)
	far := []Contribution{contribs[0]}
	far[0].Peer = 64 * 64
	e.Screen(far, oracle, -1) // spans ids 0..4096
	e.Screen(contribs, oracle, -1)
	base := 0
	fresh := func() {
		base += len(contribs)
		for i := range contribs {
			contribs[i].Peer = base + i
		}
		e.Screen(contribs, oracle, -1)
	}
	if allocs := testing.AllocsPerRun(50, fresh); allocs != 0 {
		t.Fatalf("%v allocs per screen of 64 first-sight peers", allocs)
	}
	if base+len(contribs) > 64*64 {
		t.Fatal("a screen reached past the ledger's span: the pin measured its growth")
	}
}
