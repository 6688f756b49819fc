package cache

import (
	"math"
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// checkBounds fails unless Bounds is the MBR of Regions, computed here
// coordinate by coordinate, with ok exactly when a region is cached, and
// unless every cached rectangle is finite.
func checkBounds(t *testing.T, c *Cache, op int) {
	t.Helper()
	mbr, ok := c.Bounds()
	regions := c.Regions()
	if ok != (len(regions) > 0) {
		t.Fatalf("op %d: Bounds ok = %v with %d regions", op, ok, len(regions))
	}
	if !ok {
		return
	}
	want := regions[0].Rect
	for _, r := range regions {
		if !r.Rect.Finite() {
			t.Fatalf("op %d: cached a non-finite region %v", op, r.Rect)
		}
		if r.Rect.Min.X < want.Min.X {
			want.Min.X = r.Rect.Min.X
		}
		if r.Rect.Min.Y < want.Min.Y {
			want.Min.Y = r.Rect.Min.Y
		}
		if r.Rect.Max.X > want.Max.X {
			want.Max.X = r.Rect.Max.X
		}
		if r.Rect.Max.Y > want.Max.Y {
			want.Max.Y = r.Rect.Max.Y
		}
	}
	if mbr != want {
		t.Fatalf("op %d: Bounds = %v, MBR of %d regions is %v", op, mbr, len(regions), want)
	}
}

// boundsEvents counts what a decoded op sequence exercised.
type boundsEvents struct {
	edgeEvictions int // inserts after which the old MBR no longer fits: an edge left
	emptyRepairs  int // repairs that left no piece (Recon.Discarded outside discard mode)
	expiredAll    int // expiries that emptied a non-empty cache
	nonFinite     int // inserts of a rectangle with a NaN or infinite coordinate
}

// runBoundsOps decodes b as a cache and a sequence of mutations on a
// 16×16 grid and checks the bounds invariant after every one. Byte 0
// picks the policy (bit 0) and a capacity of 4–8 POIs. Each op is an
// opcode byte, op%5, then its operands:
//
//	0 Insert: two bytes of corners packed two to a byte, a byte with the
//	  POI count (low nibble mod 10) and epoch lag (high nibble mod 3), the
//	  host position packed, then one packed position per POI, scaled into
//	  the rectangle; bit 0 of op/5 gives the host an eastward heading.
//	1 Insert with the corner op/5%4 set to NaN, or +Inf when op/20 is odd.
//	2 Reconcile at the next epoch: a byte with the horizon lag (mod 4)
//	  and, when its top two bits are set, discard mode; a byte with the
//	  item count (mod 8); three bytes per item: kind (mod 3), epoch lag
//	  (/3 mod 3) and id (high nibble), then the cell's corners packed.
//	3 ExpireBefore, a byte back from now (mod 8); lag 0 expires all.
//	4 Clear.
//
// Time is the op index, so every insert is born at its own instant. POI
// ids are drawn mod 16, so deletes and moves find their victims.
func runBoundsOps(t *testing.T, b []byte) boundsEvents {
	t.Helper()
	take := func(n int) []byte {
		if len(b) < n {
			b = append(b[:len(b):len(b)], make([]byte, n-len(b))...) // zero-pad a copy
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	packed := func(v byte) (float64, float64) { return float64(v >> 4), float64(v & 15) }
	rectOf := func(lo, hi byte) geom.Rect {
		x0, y0 := packed(lo)
		x1, y1 := packed(hi)
		return geom.NewRect(x0, y0, x1, y1)
	}
	h := take(1)[0]
	c := New(4+int(h/2%5), Policy(h%2))
	s := newRepairScratch()
	var ev boundsEvents
	epoch, nextID := int64(0), int64(0)
	for op := 0; len(b) > 0; op++ {
		code := take(1)[0]
		now := int64(op)
		switch code % 5 {
		case 0, 1:
			v := take(4)
			r := Region{Rect: rectOf(v[0], v[1]), Epoch: max(0, epoch-int64(v[2]>>4%3))}
			for n := v[2] & 15 % 10; n > 0; n-- {
				fx, fy := packed(take(1)[0])
				r.POIs = append(r.POIs, broadcast.POI{ID: nextID % 16,
					Pos: geom.Pt(r.Rect.Min.X+fx/15*r.Rect.Width(), r.Rect.Min.Y+fy/15*r.Rect.Height())})
				nextID++
			}
			if code%5 == 1 {
				bad := math.NaN()
				if code/20%2 == 1 {
					bad = math.Inf(1)
				}
				corners := [...]*float64{&r.Rect.Min.X, &r.Rect.Min.Y, &r.Rect.Max.X, &r.Rect.Max.Y}
				*corners[code/5%4] = bad
				ev.nonFinite++
			}
			var heading geom.Point
			if code/5%2 == 1 {
				heading = geom.Pt(1, 0)
			}
			old, hadOld := c.Bounds()
			px, py := packed(v[3])
			c.Insert(r, geom.Pt(px, py), heading, now)
			if mbr, _ := c.Bounds(); hadOld && !mbr.ContainsRect(old) {
				ev.edgeEvictions++
			}
		case 2:
			v := take(2)
			epoch++
			items := make([]Invalidation, 0, v[1]%8)
			for n := v[1] % 8; n > 0; n-- {
				it := take(3)
				items = append(items, Invalidation{Kind: InvalKind(it[0]%3 + 1), Epoch: epoch - int64(it[0]/3%3),
					ID: int64(it[0] >> 4), Cell: rectOf(it[1], it[2])})
			}
			discard := v[0]>>6 == 3
			invals := newInvalSet(epoch, epoch-int64(v[0]%4), items)
			rec := c.Reconcile(s, &invals, discard)
			if !discard && rec.Discarded > 0 {
				ev.emptyRepairs++
			}
		case 3:
			had := len(c.Regions())
			c.ExpireBefore(now - int64(take(1)[0]%8))
			if had > 0 && len(c.Regions()) == 0 {
				ev.expiredAll++
			}
		case 4:
			c.Clear()
		}
		checkBounds(t, c, op)
	}
	return ev
}

// Bounds is the MBR of the cached regions after every mutation: on the
// named cases (the committed FuzzCacheBounds corpus repeats them), each of
// which must exercise the event it names, and on random op sequences.
func TestBoundsIsMBR(t *testing.T) {
	for _, c := range []struct {
		name string
		ops  string
		want func(boundsEvents) bool
	}{
		// Capacity 4: the far region (12,12)-(15,15) sets the max edges and
		// is the one evicted when the third region overflows.
		{"evict the region that set an edge", "\x00" +
			"\x00\xcc\xff\x02\x00\x55\xaa" + "\x00\x00\x22\x02\x00\x55\xaa" + "\x00\x33\x44\x02\x00\x55\xaa",
			func(e boundsEvents) bool { return e.edgeEvictions > 0 }},
		// An insert at epoch 1 whose cell covers the whole region.
		{"repair that leaves no piece", "\x00" +
			"\x00\x22\x44\x01\x00\x88" + "\x02\x00\x01\x00\x00\xff",
			func(e boundsEvents) bool { return e.emptyRepairs > 0 }},
		{"expire everything", "\x00" +
			"\x00\x00\x22\x01\x00\x88" + "\x00\x88\xaa\x01\x00\x88" + "\x03\x00",
			func(e boundsEvents) bool { return e.expiredAll > 0 }},
		// NaN in each corner, then +Inf in Max.X, beside a finite region.
		{"non-finite rectangles are dropped", "\x00" +
			"\x00\x22\x44\x01\x00\x88" + "\x01\x22\x44\x00\x00" + "\x06\x22\x44\x00\x00" +
			"\x0b\x22\x44\x00\x00" + "\x10\x22\x44\x00\x00" + "\x1f\x22\x44\x00\x00",
			func(e boundsEvents) bool { return e.nonFinite == 5 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if ev := runBoundsOps(t, []byte(c.ops)); !c.want(ev) {
				t.Fatalf("the case did not exercise what it names: %+v", ev)
			}
		})
	}

	rng := rand.New(rand.NewSource(30))
	buf := make([]byte, 96)
	var total boundsEvents
	for i := 0; i < 5000; i++ {
		rng.Read(buf)
		ev := runBoundsOps(t, buf[:rng.Intn(len(buf)+1)])
		total.edgeEvictions += ev.edgeEvictions
		total.emptyRepairs += ev.emptyRepairs
		total.expiredAll += ev.expiredAll
		total.nonFinite += ev.nonFinite
	}
	if total.edgeEvictions == 0 || total.emptyRepairs == 0 || total.expiredAll == 0 || total.nonFinite == 0 {
		t.Fatalf("random sequences missed an event: %+v", total)
	}
}

// FuzzCacheBounds checks the bounds invariant over the op sequences
// runBoundsOps decodes. The committed corpus
// (testdata/fuzz/FuzzCacheBounds) holds TestBoundsIsMBR's named cases.
func FuzzCacheBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runBoundsOps(t, b)
	})
}
