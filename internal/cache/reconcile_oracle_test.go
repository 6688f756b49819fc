package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// judge is the verdict as a brute-force scan of the report: current at the
// report's epoch, the whole-discard ablation before the horizon, demoted
// before horizon-1, and otherwise repaired when some newer mutation names
// one of the region's POIs or places a POI in a cell meeting the region,
// edges included.
func judge(r *Region, epoch, horizon int64, items []Invalidation, discard bool) Verdict {
	switch {
	case r.Epoch >= epoch:
		return Current
	case discard:
		return Discard
	case r.Epoch < horizon-1:
		return Demote
	}
	for _, inv := range items {
		if inv.Epoch <= r.Epoch {
			continue
		}
		if (inv.Kind == InvalDelete || inv.Kind == InvalMove) &&
			slices.ContainsFunc(r.POIs, func(p broadcast.POI) bool { return p.ID == inv.ID }) {
			return Repair
		}
		if (inv.Kind == InvalInsert || inv.Kind == InvalMove) && inv.Cell.Intersects(r.Rect) {
			return Repair
		}
	}
	return Current
}

// removed reports whether a mutation newer than r names id.
func removed(r *Region, items []Invalidation, id int64) bool {
	return slices.ContainsFunc(items, func(inv Invalidation) bool {
		return inv.Epoch > r.Epoch && (inv.Kind == InvalDelete || inv.Kind == InvalMove) && inv.ID == id
	})
}

// cutCells returns the cells the repair of r must take out: those of the
// newer inserts and moves that meet r and have area (a cell of zero area,
// or an inverted one, holds no point a piece could lose).
func cutCells(r *Region, items []Invalidation) []geom.Rect {
	var cells []geom.Rect
	for _, inv := range items {
		if inv.Epoch > r.Epoch && (inv.Kind == InvalInsert || inv.Kind == InvalMove) &&
			inv.Cell.Intersects(r.Rect) && !inv.Cell.Empty() {
			cells = append(cells, inv.Cell)
		}
	}
	return cells
}

// checkPieces is the repair's contract on one region judged Repair, given
// its result: nil exactly when the cut kernel leaves nothing of the region
// or more than maxReconcilePieces pieces; otherwise pieces inside the
// region, pairwise interior-disjoint, meeting no cut cell's interior and
// covering every cell of the grid the coordinates span that lies in the
// region and in no cut cell; stamped as the region and at the report's
// epoch; and holding every POI neither removed nor in a cut cell, each in
// the first piece containing it, in the region's order.
func checkPieces(r *Region, items []Invalidation, epoch int64, got []Region) error {
	cells := cutCells(r, items)
	var k geom.Uncovered
	k.Reset(r.Rect)
	k.CutAll(cells)
	if n := len(k.Pieces()); (got == nil) != (n == 0 || n > maxReconcilePieces) {
		return fmt.Errorf("%d pieces %v where the kernel leaves %d", len(got), got, n)
	}
	xs, ys := []float64{r.Rect.Min.X, r.Rect.Max.X}, []float64{r.Rect.Min.Y, r.Rect.Max.Y}
	for i, p := range got {
		if !r.Rect.ContainsRect(p.Rect) {
			return fmt.Errorf("piece %v outside the region", p.Rect)
		}
		for _, o := range got[:i] {
			if _, overlap := p.Rect.Intersect(o.Rect); overlap {
				return fmt.Errorf("pieces %v and %v overlap", o.Rect, p.Rect)
			}
		}
		for _, c := range cells {
			if _, overlap := p.Rect.Intersect(c); overlap {
				return fmt.Errorf("piece %v overlaps the cut cell %v", p.Rect, c)
			}
		}
		if p.Epoch != epoch || p.Stamp != r.Stamp || p.Born != r.Born {
			return fmt.Errorf("piece %+v stamped unlike region %+v at epoch %d", p, *r, epoch)
		}
		xs = append(xs, p.Rect.Min.X, p.Rect.Max.X)
		ys = append(ys, p.Rect.Min.Y, p.Rect.Max.Y)
	}
	for _, c := range cells {
		xs = append(xs, c.Min.X, c.Max.X)
		ys = append(ys, c.Min.Y, c.Max.Y)
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)
	in := func(rs []geom.Rect, p geom.Point) bool {
		return slices.ContainsFunc(rs, func(c geom.Rect) bool { return c.Contains(p) })
	}
	rects := make([]geom.Rect, len(got))
	for i := range got {
		rects[i] = got[i].Rect
	}
	for i := 0; got != nil && i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			mid := geom.Pt((xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2)
			if want := r.Rect.Contains(mid) && !in(cells, mid); in(rects, mid) != want {
				return fmt.Errorf("grid cell at %v covered = %v, want %v (pieces %v)", mid, !want, want, rects)
			}
		}
	}
	want := make([][]broadcast.POI, len(got))
	for _, p := range r.POIs {
		if removed(r, items, p.ID) {
			continue
		}
		if i := slices.IndexFunc(rects, func(q geom.Rect) bool { return q.Contains(p.Pos) }); i >= 0 {
			want[i] = append(want[i], p)
		} else if got != nil && r.Rect.Contains(p.Pos) && !in(cells, p.Pos) {
			return fmt.Errorf("POI %v lost", p)
		}
	}
	for i := range got {
		if !slices.Equal(got[i].POIs, want[i]) {
			return fmt.Errorf("piece %v holds %v, want %v", got[i].Rect, got[i].POIs, want[i])
		}
	}
	return nil
}

// referenceReconcile is Cache.Reconcile's loop spelled out over judge, with
// each repair made on a fresh scratch, returning what the cache must hold
// afterwards.
func referenceReconcile(regions []Region, epoch, horizon int64, items []Invalidation, discard bool) ([]Region, Recon) {
	var rec Recon
	var out []Region
	invals := newInvalSet(epoch, horizon, items)
	for _, r := range regions {
		switch judge(&r, epoch, horizon, items, discard) {
		case Current:
			r.Epoch = max(r.Epoch, epoch)
			out = append(out, r)
		case Discard:
			rec.Discarded++
		case Demote:
			rec.BeyondHorizon++
			out = append(out, r)
		case Repair:
			pieces := ReconcileRegion(newRepairScratch(), &r, &invals)
			if pieces == nil {
				rec.Discarded++
				continue
			}
			rec.Repaired++
			rec.Pieces += len(pieces)
			out = append(out, cloneRegions(pieces)...)
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
// checks) every contract check repairs on, so each call starts from
// whatever the previous ones left.
var repairScratch = newRepairScratch()

// checkReconcileRegion is the repair's whole contract on one input: the
// verdict judge gives and, on a region judged Repair, pieces that keep
// checkPieces, the same twice in a row on the dirty scratch, with the
// first call's POIs intact after the second (the arena was not rewound
// between them) and the region never written.
func checkReconcileRegion(t *testing.T, r Region, items []Invalidation, epoch int64) {
	t.Helper()
	invals := newInvalSet(epoch, 0, items)
	v := invals.Verdict(&r, false)
	if want := judge(&r, epoch, 0, items, false); v != want {
		t.Fatalf("Verdict = %v, want %v\n region %+v\n items %+v", v, want, r, items)
	}
	if v != Repair {
		return
	}
	pristine := cloneRegions([]Region{r})
	var first []Region
	for call := 0; call < 2; call++ {
		got := ReconcileRegion(repairScratch, &r, &invals)
		if err := checkPieces(&r, items, epoch, got); err != nil {
			t.Fatalf("call %d: %v\n region %+v\n items %+v", call, err, r, items)
		}
		if call == 0 {
			first = append([]Region(nil), got...) // the piece list itself is scratch
		} else if err := sameRegions(got, first); err != nil {
			t.Fatalf("second call: %v", err)
		}
	}
	if err := checkPieces(&r, items, epoch, first); err != nil {
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

// The repair's contract on the named degenerate cases, with the kernel's
// piece counts (the committed fuzz corpus repeats them), and on random grid
// inputs.
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
		// pieces < 0 means nil; otherwise the piece count, 0 for a current region.
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
		// An inverted cell meets the region, so it is repaired, but covers
		// nothing: the region stays whole.
		{"inverted cell", Region{Rect: whole, POIs: pois(4, 4)},
			[]Invalidation{{Epoch: 1, Kind: InvalInsert, ID: 900, Cell: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(3, 3)}}}, 1, 1},
		{"zero-area region under a cell", Region{Rect: geom.NewRect(3, 3, 3, 7), POIs: pois(3, 5)},
			[]Invalidation{insert(1, 0, 0, 9, 9)}, 1, -1},
		{"zero-area region beside a cell", Region{Rect: geom.NewRect(3, 3, 3, 7), POIs: pois(3, 5)},
			[]Invalidation{insert(1, 3, 0, 9, 4)}, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkReconcileRegion(t, c.r, c.items, c.epoch)
			invals := newInvalSet(c.epoch, 0, c.items)
			if v := invals.Verdict(&c.r, false); (v == Current) != (c.pieces == 0) {
				t.Fatalf("Verdict = %v, want %d pieces", v, c.pieces)
			}
			if c.pieces == 0 {
				return
			}
			got := ReconcileRegion(repairScratch, &c.r, &invals)
			switch {
			case c.pieces < 0 && got != nil:
				t.Fatalf("got %v, want nil", got)
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

// FuzzReconcileRegion checks the verdict and the repair's contract on grid
// inputs, consecutive inputs sharing one dirty scratch and one arena that
// is never rewound. The committed corpus
// (testdata/fuzz/FuzzReconcileRegion) names the degenerate cases.
func FuzzReconcileRegion(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, items, epoch := decodeFuzzRepair(b)
		checkReconcileRegion(t, r, items, epoch)
	})
}

// Cache.Reconcile against the reference loop over judge: what the cache
// holds, its size and the pass summary, over caches of several regions
// where repairs fan out in front of regions the scan has not reached — and
// the pieces it keeps are its own, not the arena's.
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
		horizon, discard := int64(rng.Intn(4)), rng.Intn(8) == 0
		invals := newInvalSet(epoch, horizon, items)
		want, wantRec := referenceReconcile(cloneRegions(c.regions), epoch, horizon, items, discard)

		s.POIs.Rewind()
		rec := c.Reconcile(s, &invals, discard)
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
