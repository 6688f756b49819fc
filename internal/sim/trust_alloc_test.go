//go:build !race

package sim

import (
	"runtime"
	"testing"

	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
)

// An armed query whose screen splits nothing and audits nothing costs
// the trust stage no allocation: the oracle is bound once on the World,
// the contributions and the screened peers live in query scratch, and
// every result shares its contribution's POIs.
func TestTrustScreenAdapterAllocFree(t *testing.T) {
	p := LACity().Scaled(1).WithDuration(0.05)
	p.AuditRate = 0.1
	p.Seed = 3
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.qs.col.reset()
	for i := 0; i < 8; i++ {
		x := 0.1 * float64(i)
		vr := geom.NewRect(x, x, x+0.5, x+0.5)
		w.qs.col.add(core.PeerData{VR: vr, POIs: w.poisInRect(nil, 0, vr)}, origin{peer: i})
	}
	peers := w.qs.col.peers
	var out []core.PeerData
	screen := func() { out, _, _ = w.trustScreen(0, peers, 0, false) } // dark downlink: no audit fits
	screen()
	if allocs := testing.AllocsPerRun(100, screen); allocs != 0 {
		t.Fatalf("trustScreen allocated %v times per query", allocs)
	}
	if len(out) != len(peers) {
		t.Fatalf("%d screened peers, want %d", len(out), len(peers))
	}
	// With the downlink up audits run through the bound oracle.
	_, _, rep := w.trustScreen(0, peers, 0, true)
	for i := 0; i < 200 && rep.Audits == 0; i++ {
		_, _, rep = w.trustScreen(0, peers, 0, true)
	}
	if rep.Audits == 0 || rep.AuditFailures != 0 {
		t.Fatalf("bound oracle: %+v", rep)
	}
	// The oracle answers out of World scratch, so an audited screen costs
	// no allocation either.
	audits := 0
	lit := func() {
		_, _, rep = w.trustScreen(0, peers, 0, true)
		audits += rep.Audits
	}
	if allocs := testing.AllocsPerRun(200, lit); allocs != 0 || audits == 0 {
		t.Fatalf("audited trustScreen allocated %v times per query over %d audits", allocs, audits)
	}
}

// A delivered reply whose regions the current IR report all cuts is staged
// and then repaired on World scratch: cells, cut rectangles and pieces in
// the repair scratch, the survivors' POIs in the arena — nothing allocated.
func TestAdmitSharedRepairAllocFree(t *testing.T) {
	p := LACity().Scaled(1).WithDuration(0.05)
	p.UpdateRate = 1
	p.Seed = 3
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	const server, regions = 1, 6
	c := &w.caches[0][server]
	c.Clear()
	var items []cache.Invalidation
	for i := 0; i < regions; i++ {
		x := 0.1 * float64(i)
		vr := geom.NewRect(x, x, x+0.4, x+0.4)
		c.Insert(cache.Region{Rect: vr, POIs: w.poisInRect(nil, 0, vr)}, geom.Pt(0, 0), geom.Point{}, 0)
		items = append(items, cache.Invalidation{Epoch: 1, Kind: cache.InvalInsert, ID: 1 << 40,
			Cell: geom.NewRect(x+0.1, x+0.1, x+0.2, x+0.2)})
	}
	if len(c.Regions()) != regions {
		t.Fatalf("fixture cached %d regions, want %d", len(c.Regions()), regions)
	}
	tc := &w.cons.types[0]
	tc.epoch, tc.horizon, tc.invals = 1, 1, cache.NewInvalSet(items)

	var peers []core.PeerData
	var out replyKind
	e := &query{ti: 0, window: true}
	reply := func() {
		w.qs.arena.Rewind()
		w.qs.col.reset()
		out = w.receiveReply(server, 0, w.area, 0, true)
		peers = w.admit(e, false)
	}
	reply()
	if allocs := testing.AllocsPerRun(100, reply); allocs != 0 {
		t.Fatalf("repairing reply allocated %v times", allocs)
	}
	if out != replyDelivered || len(peers) < 4*regions || len(w.qs.col.from) != len(peers) {
		t.Fatalf("outcome %+v with %d peers entries and %d origins, want every region cut into pieces",
			out, len(peers), len(w.qs.col.from))
	}
	for i, o := range w.qs.col.from {
		if !o.repaired || o.peer != server {
			t.Fatalf("entry %d has origin %+v, want a repair piece of host %d", i, o, server)
		}
	}
}

// worldAllocsPerQuery runs a world as the bench measures it: process-wide
// mallocs over the counted steps, per counted query.
func worldAllocsPerQuery(t *testing.T, p Params) (float64, Stats) {
	t.Helper()
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	dt := w.Params.TimeStepSec
	for !w.counted() {
		w.Step(dt)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for w.nowSec < w.durationSec {
		w.Step(dt)
	}
	runtime.ReadMemStats(&m1)
	s := w.Stats()
	if s.Queries == 0 {
		t.Fatal("fixture counted no query")
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(s.Queries)
	t.Logf("%.1f allocations per query over %d queries", per, s.Queries)
	return per, s
}

// The armed write side runs in caller scratch: the bench's knn_armed cell
// at golden scale. What is left is the damaged-reply codec path and the
// cache's own inserts.
func TestArmedWorldAllocBudget(t *testing.T) {
	const budget = 40
	per, s := worldAllocsPerQuery(t, goldenWorlds()["armed_repair_knn"])
	if s.VRsReconciled == 0 {
		t.Fatal("fixture repaired no region")
	}
	if per > budget {
		t.Fatalf("%.1f allocations per query, budget %d", per, budget)
	}
}

// The on-air client runs in caller scratch: the bench's knn_sparse cell at
// golden scale, where most queries fall to the channel. What is left is
// the Known slice a cache retains and the cache's own inserts.
func TestSparseWorldAllocBudget(t *testing.T) {
	const budget = 6
	per, s := worldAllocsPerQuery(t, goldenWorlds()["sparse_knn"])
	if 2*s.Broadcast < s.Queries {
		t.Fatalf("fixture sent %d of %d queries to the channel", s.Broadcast, s.Queries)
	}
	if per > budget {
		t.Fatalf("%.1f allocations per query, budget %d", per, budget)
	}
}
