package trust

import (
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// checkQuarantineIndex requires the live quarantine set to be exactly
// want, in order, with every rectangle indexed at its position.
func checkQuarantineIndex(t *testing.T, e *Engine, want []geom.Rect) {
	t.Helper()
	live := e.quar[e.quarHead:]
	if e.QuarantinedRects() != len(want) || len(live) != len(want) || len(e.quarIdx) != len(want) {
		t.Fatalf("live %d, index %d, QuarantinedRects %d; want %d", len(live), len(e.quarIdx), e.QuarantinedRects(), len(want))
	}
	for i, r := range want {
		if live[i].r != r {
			t.Fatalf("live[%d] = %v, want %v", i, live[i].r, r)
		}
		if at, ok := e.quarIdx[r]; !ok || at != e.quarHead+i {
			t.Fatalf("index of live[%d] = %d (%v), want %d", i, at, ok, e.quarHead+i)
		}
	}
}

// At the cap every new rectangle evicts the oldest one, insertion order
// and the dedup index stay exact, and the backing array stops growing —
// across several times the cap, so the head-offset compaction runs too.
func TestQuarantineCapEvictsOldest(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.5}, nil)
	e.seq = 1
	var rep Report
	nth := func(k int) geom.Rect { return geom.NewRect(float64(k), 0, float64(k)+0.5, 1) }
	const total = 3*maxQuarRects + 7
	for k := 0; k < total; k++ {
		e.quarantineRect(nth(k), &rep)
		if k < maxQuarRects && e.QuarantinedRects() != k+1 {
			t.Fatalf("after %d insertions: %d live", k+1, e.QuarantinedRects())
		}
		if k >= maxQuarRects {
			if e.QuarantinedRects() != maxQuarRects {
				t.Fatalf("after %d insertions: %d live, want the cap", k+1, e.QuarantinedRects())
			}
			if _, ok := e.quarIdx[nth(k-maxQuarRects)]; ok {
				t.Fatalf("insertion %d did not evict rectangle %d", k, k-maxQuarRects)
			}
			if e.quar[e.quarHead].r != nth(k-maxQuarRects+1) {
				t.Fatalf("after insertion %d the oldest live rectangle is %v", k, e.quar[e.quarHead].r)
			}
		}
	}
	want := make([]geom.Rect, 0, maxQuarRects)
	for k := total - maxQuarRects; k < total; k++ {
		want = append(want, nth(k))
	}
	checkQuarantineIndex(t, e, want)
	if cap(e.quar) > 4*maxQuarRects {
		t.Fatalf("backing array grew to %d entries under eviction", cap(e.quar))
	}
	if wantArea := 0.5 * total; rep.QuarantinedArea != wantArea {
		t.Fatalf("quarantined area %v, want %v", rep.QuarantinedArea, wantArea)
	}
	// An evicted rectangle that resurfaces is new again.
	e.quarantineRect(nth(0), &rep)
	checkQuarantineIndex(t, e, append(want[1:], nth(0)))

	// Decay with survivors on both sides of the expired entries: the ones
	// in front keep their index, the ones behind move up.
	for i := e.quarHead + 10; i < e.quarHead+20; i++ {
		e.quar[i].until = e.seq + 1
	}
	e.quarMinUntil = e.seq + 1
	live := append([]geom.Rect(nil), want[1:]...)
	live = append(live, nth(0))
	live = append(live[:10], live[20:]...)
	e.seq++
	e.decayQuarantine()
	checkQuarantineIndex(t, e, live)
}

// A rectangle disputed again while still quarantined has its horizon
// extended, keeps its place, and is not counted as new area; the decay
// scan is skipped until the earliest horizon is due.
func TestQuarantineRefreshExtendsNotRecounts(t *testing.T) {
	e := newTestEngine(t, Config{AuditRate: 0.0001, quarantineCycles: 10, convictStrikes: 100}, nil)
	a := lying(0, geom.NewRect(0, 0, 4, 4), geom.Pt(3.5, 3.5))
	b := honest(1, geom.NewRect(3, 3, 6, 6))
	overlap := geom.NewRect(3, 3, 4, 4)
	other := []Contribution{lying(2, geom.NewRect(10, 10, 14, 14), geom.Pt(13.5, 13.5)), honest(3, geom.NewRect(13, 13, 16, 16))}

	var sum Report
	screen := func(contribs []Contribution) Report {
		_, rep := e.Screen(contribs, oracle, 0)
		addReport(&sum, rep)
		return rep
	}
	rep := screen([]Contribution{a, b}) // seq 1: until 11
	if rep.Conflicts != 1 || rep.QuarantinedArea != overlap.Area() {
		t.Fatalf("first dispute: %+v", rep)
	}
	screen(other) // seq 2: a second rectangle, until 12
	for e.seq < 6 {
		screen(nil)
	}
	rep = screen([]Contribution{a, b}) // seq 7: refreshed to 17
	if rep.Conflicts != 1 || rep.QuarantinedArea != 0 {
		t.Fatalf("refreshing dispute re-counted area: %+v", rep)
	}
	if e.QuarantinedRects() != 2 || e.quar[e.quarHead].r != overlap || e.quar[e.quarHead].until != 17 {
		t.Fatalf("refresh moved or missed the rectangle: %+v", e.quar[e.quarHead:])
	}
	if total := sum.QuarantinedArea; total != 2*overlap.Area() {
		t.Fatalf("cumulative quarantined area %v, want %v", total, 2*overlap.Area())
	}
	// The refresh leaves quarMinUntil a stale lower bound (11): the scan
	// it triggers finds nothing expired and must move nothing.
	for e.seq < 11 {
		e.Screen(nil, oracle, 0)
	}
	checkQuarantineIndex(t, e, []geom.Rect{overlap, geom.NewRect(13, 13, 14, 14)})
	if e.quarMinUntil != 12 {
		t.Fatalf("quarMinUntil = %d after the scan, want 12", e.quarMinUntil)
	}
	e.Screen(nil, oracle, 0) // seq 12: the second rectangle expires
	checkQuarantineIndex(t, e, []geom.Rect{overlap})
	for e.seq < 16 {
		e.Screen(nil, oracle, 0)
	}
	if e.QuarantinedRects() != 1 {
		t.Fatal("refreshed rectangle expired on its first horizon")
	}
	e.Screen(nil, oracle, 0) // seq 17
	checkQuarantineIndex(t, e, nil)
	if e.quarHead != 0 || len(e.quar) != 0 {
		t.Fatalf("emptied quarantine not rewound: head %d len %d", e.quarHead, len(e.quar))
	}
}

func sharesStorage(a, b []broadcast.POI) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// aliasScene is one screen that produces all three kinds of row: a
// vouched peer's region (its POIs slice shared), an unvouched region a
// quarantined rectangle cuts a POI out of (a copy), and an unvouched
// region that loses a POI to the cross-pool dedup (a copy).
func aliasScene(t *testing.T) (e *Engine, contribs []Contribution) {
	t.Helper()
	e = newTestEngine(t, Config{AuditRate: 1, maxAuditsPerQuery: 1, convictStrikes: 100}, nil)
	vouchedC := honest(0, geom.NewRect(0, 0, 6, 6)) // POIs 1, 2, 3
	e.Screen([]Contribution{vouchedC}, oracle, -1)
	if !e.Vouched(0) {
		t.Fatal("fixture: peer 0 not vouched")
	}
	var rep Report
	e.quarantineRect(geom.NewRect(8.5, 8.5, 9.5, 9.5), &rep) // swallows POI 5 at (9, 9)
	split := honest(1, geom.NewRect(6.2, 6.2, 10, 10))       // POIs 4, 5
	deduped := honest(2, geom.NewRect(4, 4, 7.5, 7.5))       // POI 3, which peer 0 vouches for, then POI 4
	whole := honest(3, geom.NewRect(6.5, 6.5, 7.6, 7.6))     // POI 4, tainted, untouched
	return e, []Contribution{vouchedC, split, deduped, whole}
}

// A screen's rows are valid until the next Screen: reading them and the
// engine's accessors changes none of them, and the next screen takes the
// arena back (the copies it makes land where the last screen's did), so
// the arena's size is one screen's copies however long the engine runs.
func TestScreenRowsValidUntilNextScreen(t *testing.T) {
	e, contribs := aliasScene(t)
	out, _ := e.Screen(contribs, oracle, 0)
	if len(out) != len(contribs) {
		t.Fatalf("fixture produced %d rows for %d contributions: %+v", len(out), len(contribs), out)
	}
	var snapshot []core.PeerData
	for _, r := range out {
		snapshot = append(snapshot, core.PeerData{VR: r.VR, POIs: slices.Clone(r.POIs), Tainted: r.Tainted})
	}
	// The vouched and the untouched tainted rows share their claim's
	// storage; the cut and the deduped ones are copies.
	kinds := []bool{sharesStorage(out[0].POIs, contribs[0].POIs), !sharesStorage(out[1].POIs, contribs[1].POIs),
		!sharesStorage(out[2].POIs, contribs[2].POIs), sharesStorage(out[3].POIs, contribs[3].POIs)}
	if slices.Contains(kinds, false) || len(out[1].POIs) != 1 || out[1].VR != contribs[1].VR {
		t.Fatalf("fixture missed a row kind: %v\n%+v", kinds, out)
	}
	res := core.NNVScratch(new(core.Scratch), geom.Pt(7, 7), out, 3, 0.1)
	if res.Merged != 1 || res.Heap.TaintedCount() != 1 {
		t.Fatalf("NNV over the rows merged %d regions and ranked %d tainted candidates", res.Merged, res.Heap.TaintedCount())
	}
	_, _, _ = e.Vouched(1), e.Quarantined(1), e.QuarantinedRects()
	sameRows(t, out, snapshot)
	cut := &out[1].POIs[0]
	again, _ := e.Screen(contribs, oracle, 0)
	if &again[1].POIs[0] != cut {
		t.Fatal("the next screen did not take the arena back: its copy of the cut row moved")
	}
}

// Screen borrows its input: neither the contributions nor the storage
// their POIs slices point into — spare capacity included — is written,
// even where a shared slice has POIs to lose (copy-on-write).
func TestScreenDoesNotMutateInputs(t *testing.T) {
	e, contribs := aliasScene(t)
	// Give every POIs slice spare capacity holding a sentinel: an
	// in-place filter would overwrite elements, an append the spare room.
	sentinel := broadcast.POI{ID: -99, Pos: geom.Pt(-9, -9)}
	for i := range contribs {
		grown := make([]broadcast.POI, len(contribs[i].POIs), len(contribs[i].POIs)+2)
		copy(grown, contribs[i].POIs)
		grown = append(grown, sentinel, sentinel)
		contribs[i].POIs = grown[:len(grown)-2]
	}
	pristine := cloneContribs(contribs)
	for round := 0; round < 3; round++ {
		out, _ := e.Screen(contribs, oracle, 0)
		if !sameContribs(contribs, pristine) {
			t.Fatalf("round %d: Screen wrote to its input\n got  %+v\n want %+v", round, contribs, pristine)
		}
		for i, c := range contribs {
			for _, p := range c.POIs[len(c.POIs):cap(c.POIs)] {
				if p != sentinel {
					t.Fatalf("round %d: Screen wrote past contribution %d's POIs", round, i)
				}
			}
		}
		// A row that lost a POI must not be a view of the input.
		if r := out[2]; len(r.POIs) != 1 || &r.POIs[0] == &contribs[2].POIs[1] {
			t.Fatalf("round %d: deduped row %v shares the contribution's storage", round, r.POIs)
		}
	}
}
