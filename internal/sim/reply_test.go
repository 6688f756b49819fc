package sim

import (
	"reflect"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/trust"
	"lbsq/internal/wire"
)

// cacheCopy is a deep copy of a cache's regions, POI lists included.
func cacheCopy(c *cache.Cache) []cache.Region {
	out := slices.Clone(c.Regions())
	for i := range out {
		out[i].POIs = slices.Clone(out[i].POIs)
	}
	return out
}

// A reply that does not arrive leaves the query's collection holding
// exactly the rows it held before: a dropped frame, a damaged frame the
// codec rejects, and a region set over the wire limits. A reply that does
// arrive — honest, byzantine, or damaged and still passed by the codec —
// appends one row per relevant region after them. No reply, whatever its
// fate or its lie, writes a region of the serving peer's cache.
func TestFailedReplyLeavesCollection(t *testing.T) {
	p := LACity().Scaled(1).WithDuration(0.05)
	p.Seed = 3
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	const server = 1
	fill := func(c *cache.Cache) {
		for i := 0; i < 3; i++ {
			x := 0.2 * float64(i)
			vr := geom.NewRect(x, x, x+0.5, x+0.5)
			c.Insert(cache.Region{Rect: vr, POIs: w.poisInRect(nil, vr)}, geom.Pt(0, 0), geom.Point{}, 0)
		}
	}
	w.caches[server].Clear()
	fill(&w.caches[server])
	if r := w.caches[server].Regions(); len(r) != 3 || len(r[0].POIs) == 0 {
		t.Fatalf("fixture cached %+v, want three regions holding POIs", r)
	}
	// Rows already collected from elsewhere, which every reply must keep.
	seed := func() {
		w.qs.col.reset()
		for i := 0; i < 2; i++ {
			vr := geom.NewRect(1, 1, 1.3+0.1*float64(i), 1.3)
			w.qs.col.add(core.PeerData{VR: vr, POIs: w.poisInRect(nil, vr)}, origin{peer: trust.Self})
		}
	}
	w.byzAttack = make([]faults.Attack, len(w.caches))

	// reply sends one reply from server under the given fates and checks
	// the collection and the server's cache after it.
	trial := int64(0)
	reply := func(tag string, prof faults.Profile) replyKind {
		t.Helper()
		trial++
		w.inj = faults.New(trial, prof)
		seed()
		peers, from := slices.Clone(w.qs.col.peers), slices.Clone(w.qs.col.from)
		before := cacheCopy(&w.caches[server])
		got := w.receiveReply(server, w.area, 0, true)
		if after := cacheCopy(&w.caches[server]); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the reply wrote the server's cache:\n got %+v\nwant %+v", tag, after, before)
		}
		n := len(peers)
		col := &w.qs.col
		if len(col.peers) != len(col.from) || len(col.peers) < n ||
			!reflect.DeepEqual(col.peers[:n], peers) || !reflect.DeepEqual(col.from[:n], from) {
			t.Fatalf("%s: outcome %v rewrote the rows already collected: %d rows and %d origins, want %d first",
				tag, got, len(col.peers), len(col.from), n)
		}
		if got != replyDelivered {
			if len(col.peers) != n {
				t.Fatalf("%s: outcome %v left %d rows, want the %d it found", tag, got, len(col.peers), n)
			}
			return got
		}
		if added := len(col.peers) - n; added != len(before) {
			t.Fatalf("%s: delivered %d rows for %d relevant regions", tag, added, len(before))
		}
		for i, o := range col.from[n:] {
			if o != (origin{peer: server, epoch: before[i].Epoch}) {
				t.Fatalf("%s: row %d has origin %+v", tag, n+i, o)
			}
			pd := &col.peers[n+i]
			if honest := w.byzAttack[server] == faults.AttackNone; honest &&
				(pd.VR != before[i].Rect || !slices.Equal(pd.POIs, before[i].POIs) || pd.Tainted) {
				t.Fatalf("%s: row %d is %+v, want the cached region %+v", tag, n+i, *pd, before[i])
			}
		}
		return got
	}

	for _, atk := range []faults.Attack{faults.AttackNone, faults.AttackMix} {
		w.byzAttack[server] = atk
		name := atk.String()
		if got := reply(name+" deliver", faults.Profile{}); got != replyDelivered {
			t.Fatalf("%s: a clean reply came back %v", name, got)
		}
		if got := reply(name+" drop", faults.Profile{ReplyLoss: 1}); got != replyDropped {
			t.Fatalf("%s: a lost reply came back %v", name, got)
		}
		for i := 0; i < 20; i++ {
			if got := reply(name+" truncate", faults.Profile{ReplyTruncate: 1}); got != replyRejected {
				t.Fatalf("%s: a truncated reply came back %v", name, got)
			}
		}
		// One to four flipped bits: the CRC refuses almost every frame,
		// and a frame whose flips cancel is delivered as decoded.
		rejected := 0
		for i := 0; i < 20; i++ {
			if reply(name+" corrupt", faults.Profile{ReplyCorrupt: 1}) == replyRejected {
				rejected++
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: the codec passed every corrupted frame", name)
		}
	}

	// A region over the wire's POI limit cannot be encoded, so a damaged
	// reply holding it never leaves the peer.
	big := cache.New(2*wire.MaxPOIsPerRegion, cache.LRU)
	fill(big)
	huge := cache.Region{Rect: geom.NewRect(0.5, 0.5, 0.6, 0.6)}
	// Two over, so that an omission still leaves it over.
	for i := 0; i < wire.MaxPOIsPerRegion+2; i++ {
		huge.POIs = append(huge.POIs, broadcast.POI{ID: int64(1<<40 + i), Pos: geom.Pt(0.55, 0.55)})
	}
	big.Insert(huge, geom.Pt(0, 0), geom.Point{}, 0)
	if len(big.Regions()) != 4 {
		t.Fatalf("fixture cached %d regions, want 4", len(big.Regions()))
	}
	w.caches[server] = *big
	for _, atk := range []faults.Attack{faults.AttackNone, faults.AttackMix} {
		w.byzAttack[server] = atk
		if got := reply(atk.String()+" unencodable", faults.Profile{ReplyTruncate: 1}); got != replyUnencodable {
			t.Fatalf("%v: an over-limit reply came back %v", atk, got)
		}
	}
}
