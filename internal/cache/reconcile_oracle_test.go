package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// referenceReconcileRegion is ReconcileRegion as it stood before it became
// a kernel over caller scratch, verbatim: a fresh cell list, a fresh piece
// list and one growing POI slice per piece. The kernel must return its
// pieces — rectangles bit for bit, POIs in its order, stamps and epochs —
// whatever its scratch and arena held before.
func referenceReconcileRegion(r Region, invals InvalSet, epoch int64) ([]Region, bool) {
	if !invals.Touches(&r) {
		return nil, false
	}
	var cells []geom.Rect
	for i := range invals.items {
		if inv := &invals.items[i]; inv.cuts(&r) {
			cells = append(cells, inv.Cell)
		}
	}
	rects := geom.AppendSubtractRect(nil, r.Rect, cells)
	if len(rects) == 0 || len(rects) > maxReconcilePieces {
		return nil, true
	}
	pieces := make([]Region, len(rects))
	for i, rect := range rects {
		pieces[i] = Region{Rect: rect, Stamp: r.Stamp, Epoch: epoch, Born: r.Born}
	}
	// First-containing-piece assignment keeps POI ownership disjoint when
	// a survivor sits exactly on a shared piece boundary.
	for _, p := range r.POIs {
		if invals.removes(p.ID, r.Epoch) {
			continue
		}
		for i := range pieces {
			if pieces[i].Rect.Contains(p.Pos) {
				pieces[i].POIs = append(pieces[i].POIs, p)
				break
			}
		}
	}
	return pieces, true
}

// referenceReconcile is Cache.Reconcile's loop over the reference repair,
// returning what the cache must hold afterwards.
func referenceReconcile(regions []Region, epoch, horizon int64, invals InvalSet, discard bool) ([]Region, Recon) {
	var rec Recon
	var out []Region
	for _, r := range regions {
		switch {
		case r.Epoch >= epoch:
			out = append(out, r)
		case discard:
			rec.Discarded++
		case r.Epoch < horizon-1:
			rec.BeyondHorizon++
			out = append(out, r)
		default:
			pieces, touched := referenceReconcileRegion(r, invals, epoch)
			switch {
			case !touched:
				r.Epoch = epoch
				out = append(out, r)
			case pieces == nil:
				rec.Discarded++
			default:
				rec.Repaired++
				rec.Pieces += len(pieces)
				out = append(out, pieces...)
			}
		}
	}
	return out, rec
}

// sameRegions reports whether two region lists agree on everything a
// consumer can read: rectangles (exact floats), POIs in order, stamps.
func sameRegions(a, b []Region) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d regions, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Rect != y.Rect || x.Stamp != y.Stamp || x.Epoch != y.Epoch || x.Born != y.Born {
			return fmt.Errorf("region %d is %+v, want %+v", i, x, y)
		}
		if len(x.POIs) != len(y.POIs) {
			return fmt.Errorf("region %d holds %v, want %v", i, x.POIs, y.POIs)
		}
		for j := range x.POIs {
			if x.POIs[j] != y.POIs[j] {
				return fmt.Errorf("region %d holds %v, want %v", i, x.POIs, y.POIs)
			}
		}
	}
	return nil
}

func cloneRegions(rs []Region) []Region {
	out := make([]Region, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].POIs = append([]broadcast.POI(nil), r.POIs...)
	}
	return out
}

// repairScratch is the one dirty scratch (and arena, never rewound by the
// checks) every differential check repairs on, so each call starts from
// whatever the previous ones left.
var repairScratch = newRepairScratch()

// checkReconcileRegion is the kernel's whole contract on one input: the
// reference's answer, twice in a row on the dirty scratch, with the first
// call's POIs intact after the second (the arena was not rewound between
// them) and the region never written.
func checkReconcileRegion(t *testing.T, r Region, items []Invalidation, epoch int64) {
	t.Helper()
	invals := NewInvalSet(items)
	want, wantTouched := referenceReconcileRegion(r, invals, epoch)
	pristine := cloneRegions([]Region{r})
	var first []Region
	for call := 0; call < 2; call++ {
		got, touched := ReconcileRegion(repairScratch, &r, invals, epoch)
		if touched != wantTouched || (got == nil) != (want == nil) {
			t.Fatalf("call %d: ReconcileRegion = (%v, %v), reference = (%v, %v)", call, got, touched, want, wantTouched)
		}
		if err := sameRegions(got, want); err != nil {
			t.Fatalf("call %d: %v\n region %+v\n items %+v", call, err, r, items)
		}
		if call == 0 {
			first = append([]Region(nil), got...) // the piece list itself is scratch
		}
	}
	if err := sameRegions(first, want); err != nil {
		t.Fatalf("first call's pieces changed under the second: %v", err)
	}
	if err := sameRegions([]Region{r}, pristine); err != nil {
		t.Fatalf("ReconcileRegion wrote to its region: %v", err)
	}
}

func pois(ps ...float64) []broadcast.POI {
	var out []broadcast.POI
	for i := 0; i+1 < len(ps); i += 2 {
		out = append(out, broadcast.POI{ID: int64(i/2 + 1), Pos: geom.Pt(ps[i], ps[i+1])})
	}
	return out
}

// The kernel on the named degenerate cases (the committed fuzz corpus
// repeats them) and on random grid inputs.
func TestReconcileRegionMatchesReference(t *testing.T) {
	insert := func(epoch int64, x0, y0, x1, y1 float64) Invalidation {
		return Invalidation{Epoch: epoch, Kind: InvalInsert, ID: 900, Cell: geom.NewRect(x0, y0, x1, y1)}
	}
	var fence []Invalidation // one cell more than the piece cap survives
	for i := 0; i <= maxReconcilePieces; i++ {
		x := float64(i)*3 + 1
		fence = append(fence, insert(1, x, 0, x+0.5, 1))
	}
	whole := geom.NewRect(0, 0, 8, 8)
	for _, c := range []struct {
		name  string
		r     Region
		items []Invalidation
		epoch int64
		// pieces < 0 means (nil, true); otherwise the piece count, 0 for untouched.
		pieces int
	}{
		{"cell covers the whole region", Region{Rect: geom.NewRect(2, 2, 3, 3), POIs: pois(2.5, 2.5)},
			[]Invalidation{insert(1, 0, 0, 10, 10)}, 1, -1},
		{"more than the piece cap", Region{Rect: geom.NewRect(0, 0, 100, 1)}, fence, 1, -1},
		{"exactly the piece cap", Region{Rect: geom.NewRect(0, 0, 100, 1), POIs: pois(0.5, 0.5, 99, 0.5)},
			fence[:maxReconcilePieces-1], 1, maxReconcilePieces},
		// The band cut leaves pieces sharing the edge y = 3: POI 1 sits on it
		// and belongs to the first piece that contains it.
		{"survivor on a shared piece boundary", Region{Rect: whole, POIs: pois(1, 3, 7, 5, 1, 5)},
			[]Invalidation{insert(1, 3, 3, 5, 5)}, 1, 4},
		{"survivor inside a cut cell is dropped", Region{Rect: whole, POIs: pois(4, 4, 1, 1)},
			[]Invalidation{insert(1, 3, 3, 5, 5)}, 1, 4},
		{"region with no POIs", Region{Rect: whole}, []Invalidation{insert(1, 3, 3, 5, 5)}, 1, 4},
		{"every POI deleted", Region{Rect: whole, POIs: pois(1, 1, 2, 2)},
			[]Invalidation{{Epoch: 1, Kind: InvalDelete, ID: 1}, {Epoch: 1, Kind: InvalDelete, ID: 2}}, 1, 1},
		{"zero-area cell", Region{Rect: whole, POIs: pois(4, 4)}, []Invalidation{insert(1, 4, 0, 4, 8)}, 1, 1},
		{"non-intersecting cell", Region{Rect: whole, POIs: pois(4, 4)}, []Invalidation{insert(1, 9, 9, 10, 10)}, 1, 0},
		{"cell touching an edge only", Region{Rect: whole, POIs: pois(8, 4)}, []Invalidation{insert(1, 8, 0, 9, 8)}, 1, 1},
		{"delete-only report leaves the rectangle whole", Region{Rect: whole, POIs: pois(1, 1, 2, 2, 3, 3)},
			[]Invalidation{{Epoch: 1, Kind: InvalDelete, ID: 2}}, 1, 1},
		{"move strips the id and cuts the new cell", Region{Rect: whole, POIs: pois(1, 1, 6, 6)},
			[]Invalidation{{Epoch: 1, Kind: InvalMove, ID: 1, Cell: geom.NewRect(6, 6, 7, 7)}}, 1, 4},
		{"mutation at the region's epoch is already reflected", Region{Rect: whole, POIs: pois(1, 1), Epoch: 1},
			[]Invalidation{{Epoch: 1, Kind: InvalDelete, ID: 1}, insert(1, 3, 3, 5, 5)}, 2, 0},
		{"newest removal wins", Region{Rect: whole, POIs: pois(1, 1), Epoch: 2},
			[]Invalidation{{Epoch: 3, Kind: InvalDelete, ID: 1}, {Epoch: 1, Kind: InvalMove, ID: 1, Cell: whole}}, 3, 1},
		{"stamps carry over", Region{Rect: whole, POIs: pois(1, 1), Stamp: 7, Born: 5, Epoch: 2},
			[]Invalidation{insert(3, 3, 3, 5, 5)}, 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkReconcileRegion(t, c.r, c.items, c.epoch)
			got, touched := ReconcileRegion(repairScratch, &c.r, NewInvalSet(c.items), c.epoch)
			switch {
			case c.pieces < 0 && (got != nil || !touched):
				t.Fatalf("got (%v, %v), want (nil, true)", got, touched)
			case c.pieces == 0 && (got != nil || touched):
				t.Fatalf("got (%v, %v), want (nil, false)", got, touched)
			case c.pieces > 0 && len(got) != c.pieces:
				t.Fatalf("got %d pieces %v, want %d", len(got), got, c.pieces)
			}
		})
	}

	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(buf)
		r, items, epoch := decodeFuzzRepair(buf[:rng.Intn(len(buf)+1)])
		checkReconcileRegion(t, r, items, epoch)
	}
}

// decodeFuzzRepair reads a fuzz input as one repair on a coarse grid, where
// POIs on cell and piece edges are the norm: four bytes of region corners
// (mod 16, normalised), one byte of region epoch (mod 4; the report is at
// epoch 4), one byte of POI count (mod 12) followed by two position bytes
// per POI (ids 0, 1, …), then five bytes per invalidation: kind and epoch
// (kinds 1–3, epochs 0–4), the id it names (mod 16), and the cell's
// corners packed two to a byte, taken raw — a delete carries its cell too,
// which the kernel must ignore.
func decodeFuzzRepair(b []byte) (r Region, items []Invalidation, epoch int64) {
	take := func(n int) []byte {
		if len(b) < n {
			b = append(b[:len(b):len(b)], make([]byte, n-len(b))...) // zero-pad a copy
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	c := take(6)
	r = Region{Rect: geom.NewRect(float64(c[0]%16), float64(c[1]%16), float64(c[2]%16), float64(c[3]%16)),
		Epoch: int64(c[4] % 4), Stamp: 11, Born: 3}
	for n := int(c[5] % 12); n > 0; n-- {
		p := take(2)
		r.POIs = append(r.POIs, broadcast.POI{ID: int64(len(r.POIs)), Pos: geom.Pt(float64(p[0]%16), float64(p[1]%16))})
	}
	for len(b) >= 5 && len(items) < 48 {
		v := take(5)
		items = append(items, Invalidation{
			Kind: InvalKind(v[0]%3 + 1), Epoch: int64(v[0] / 3 % 5), ID: int64(v[1] % 16),
			Cell: geom.Rect{Min: geom.Pt(float64(v[2]>>4), float64(v[2]&15)), Max: geom.Pt(float64(v[3]>>4), float64(v[3]&15))},
		})
	}
	return r, items, 4
}

// FuzzReconcileRegion checks the kernel against the reference on grid
// inputs, consecutive inputs sharing one dirty scratch and one arena that
// is never rewound. The committed corpus
// (testdata/fuzz/FuzzReconcileRegion) names the degenerate cases.
func FuzzReconcileRegion(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, items, epoch := decodeFuzzRepair(b)
		checkReconcileRegion(t, r, items, epoch)
	})
}

// Cache.Reconcile against the reference loop: what the cache holds, its
// size and the pass summary, over caches of several regions where repairs
// fan out in front of regions the scan has not reached — and the pieces it
// keeps are its own, not the arena's.
func TestCacheReconcileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 48)
	s := newRepairScratch()
	for trial := 0; trial < 3000; trial++ {
		c := New(1<<20, LRU)
		for n := 1 + rng.Intn(6); n > 0; n-- {
			rng.Read(buf)
			r, _, _ := decodeFuzzRepair(buf)
			c.Insert(r, geom.Pt(0, 0), geom.Point{}, int64(n))
		}
		for i := range c.regions {
			c.regions[i].Epoch = int64(rng.Intn(5))
		}
		rng.Read(buf)
		_, items, epoch := decodeFuzzRepair(buf)
		invals := NewInvalSet(items)
		horizon, discard := int64(rng.Intn(4)), rng.Intn(8) == 0
		want, wantRec := referenceReconcile(cloneRegions(c.regions), epoch, horizon, invals, discard)

		s.POIs.Rewind()
		rec := c.Reconcile(s, epoch, horizon, invals, discard)
		// What later repairs put in the arena must not show through the cache.
		s.POIs.Rewind()
		for junk, i := s.POIs.Alloc(256), 0; i < len(junk); i++ {
			junk[i] = broadcast.POI{ID: -1}
		}
		if rec != wantRec {
			t.Fatalf("trial %d: recon %+v, want %+v", trial, rec, wantRec)
		}
		if err := sameRegions(c.Regions(), want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		size := 0
		for _, r := range want {
			size += cost(r)
		}
		if c.Size() != size {
			t.Fatalf("trial %d: size %d, want %d", trial, c.Size(), size)
		}
	}
}
