package sim

import (
	"fmt"
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/rtree"
	"lbsq/internal/trust"
	"lbsq/internal/wire"
)

// ConsistencyKnobs configure the dynamic-POI layer (DESIGN.md §12); all
// zero keeps the paper's immutable database. See LayerKnobs for the tags.
type ConsistencyKnobs struct {
	// UpdateRate arms the consistency layer (DESIGN.md §12): the mean
	// number of POI mutations (insert/delete/move) per minute across the
	// whole database. Zero (the default) keeps the paper's immutable POI
	// set — no update process exists, no IR frames ride the index slots,
	// and every output is bit-identical to a build without the layer.
	// Nonzero versions the POI database with a monotone epoch counter,
	// broadcasts invalidation reports every IRPeriodSec, and makes every
	// client reconcile its cached verified regions (surgical shrink with
	// the cut kernel geom.Uncovered) before querying.
	UpdateRate float64 `json:"update_rate,omitempty" flag:"update-rate" usage:"POI mutations per minute (insert/delete/move); 0 keeps the database static"`
	// IRPeriodSec is the invalidation-report broadcast period in
	// simulated seconds; mutations accumulate into one epoch per period.
	// Defaults to 30 when UpdateRate is set.
	IRPeriodSec float64 `json:"ir_period_sec,omitempty" flag:"ir-period" usage:"invalidation-report broadcast period in seconds (0 = default 30 when -update-rate > 0)"`
	// IRWindow is how many past epochs of mutation items one IR frame
	// retains (the paper's broadcast-window w of Tabassum et al.): a
	// client whose cached region slept past IRWindow epochs cannot repair
	// it and must demote it to the probabilistic path. Defaults to 8 when
	// UpdateRate is set.
	IRWindow int `json:"ir_window,omitempty" flag:"ir-window" usage:"epochs each invalidation report retains (0 = default 8; older caches demote)"`
	// VRTTLSec is an optional time-to-live for cached verified regions:
	// regions older than this are evicted at the owner's next IR sync (a
	// defense-in-depth bound on how long any cache entry can matter).
	// Zero disables TTL expiry.
	VRTTLSec float64 `json:"vr_ttl_sec,omitempty" flag:"vr-ttl" usage:"cached verified-region time-to-live in seconds (0 = no expiry)"`
	// IRDiscard switches reconciliation to the whole-region-discard
	// ablation: any superseded region is dropped instead of surgically
	// shrunk. The EXPERIMENTS.md freshness curve quantifies what the
	// surgical repair buys over this baseline.
	IRDiscard bool `json:"ir_discard,omitempty" flag:"ir-discard" usage:"discard whole superseded regions instead of surgically reconciling them (ablation)"`
}

// updateSeedSalt seeds the POI-mutation stream and irSeedSalt the
// IR-listen loss stream. Both are decorrelated from the world, fault,
// byzantine, and trust streams for the same reason as faultSeedSalt:
// arming the consistency layer must not perturb movement, query
// launching, the POI field, or any other layer's draws (and the listen
// stream stays off the schedule's own lossRng so the query path's loss
// sequence is untouched by IR traffic).
const (
	updateSeedSalt = 0x75706474 // "updt"
	irSeedSalt     = 0x69726c73 // "irls"
)

// maxUpdatesPerEpoch caps how many mutations one IR period may batch into
// a single epoch, keeping every IR frame within wire.MaxIRItems even at
// the full IRWindow retention. Poisson draws above the cap are clamped
// (at sane update rates the cap is orders of magnitude away).
const maxUpdatesPerEpoch = wire.MaxIRItems / 4

// consState is the server side of the consistency layer (DESIGN.md §12):
// the seeded update process, the version state, and the loss stream for
// client IR listens. Nil when UpdateRate is zero — no state, no draws,
// and the zero-knob outputs stay bit-identical to the seed.
type consState struct {
	updRng  *rand.Rand
	lossRng *rand.Rand
	loss    float64 // BroadcastLoss applied to IR receptions
	// nextIRSec is the simulated time of the next IR broadcast tick.
	nextIRSec float64
	// epoch is the monotone database version; it advances once per IR
	// period that saw at least one mutation.
	epoch int64
	// nextID is the next fresh POI id (inserts never reuse ids).
	nextID int64
	// records holds the last IRWindow epochs' mutation items — the
	// server-side memory the broadcast IR frame carries.
	records []epochRecord
	// invals mirrors the *decoded* current IR frame: its epoch, the
	// oldest epoch it retains and its items as cache invalidations,
	// indexed once per frame. Clients reconcile strictly from it, so the
	// wire codec is load-bearing, not decorative.
	invals cache.InvalSet
	// frameBytes is the encoded size of the current IR frame.
	frameBytes int
	// heard is, per host, the newest epoch it has heard an IR frame for.
	heard []int64
}

// epochRecord is one epoch's batch of mutation items.
type epochRecord struct {
	epoch int64
	items []wire.IRItem
}

// newConsState builds the consistency state for an armed world.
// nPOIs is the size of the initial database: the first fresh POI id.
func newConsState(p Params, nPOIs int) *consState {
	return &consState{
		updRng:    rand.New(rand.NewSource(p.Seed ^ updateSeedSalt)),
		lossRng:   rand.New(rand.NewSource(p.Seed ^ irSeedSalt)),
		loss:      p.Faults.BroadcastLoss,
		nextIRSec: p.IRPeriodSec,
		nextID:    int64(nPOIs),
		heard:     make([]int64, p.MHNumber),
	}
}

// advanceConsistency runs every IR broadcast tick that has come due:
// mutations accumulate into one epoch per period and the refreshed IR
// frame goes on air. Called once per Step, before query launches, so
// every query of a step sees a settled epoch.
func (w *World) advanceConsistency() {
	c := w.cons
	if c == nil {
		return
	}
	for w.nowSec >= c.nextIRSec {
		w.applyUpdates()
		c.nextIRSec += w.Params.IRPeriodSec
	}
}

// applyUpdates mutates the POI set for one IR period and rebuilds its
// ground truth, broadcast schedule, and IR frame. The mutation mix is
// uniform over insert/delete/move; deletes and moves pick a uniform
// victim, inserts and moves draw a uniform fresh position. Every draw
// comes from the dedicated update stream.
func (w *World) applyUpdates() {
	c := w.cons
	ts := &w.data
	mean := w.Params.UpdateRate / 60 * w.Params.IRPeriodSec
	n := mobility.Poisson(c.updRng, mean)
	if n > maxUpdatesPerEpoch {
		n = maxUpdatesPerEpoch
	}
	if n == 0 {
		return // quiet period: no epoch advance, no new frame
	}
	c.epoch++
	curve := ts.sched.Curve()
	items := make([]wire.IRItem, 0, n)
	for i := 0; i < n; i++ {
		op := c.updRng.Intn(3)
		if len(ts.db) <= 1 && op != 0 {
			op = 0 // keep the database non-empty (the channel needs content)
		}
		switch op {
		case 1: // delete
			j := c.updRng.Intn(len(ts.db))
			id := ts.db[j].ID
			ts.db = append(ts.db[:j], ts.db[j+1:]...)
			items = append(items, wire.IRItem{Epoch: c.epoch, Kind: wire.IRDelete, ID: id})
		case 2: // move
			j := c.updRng.Intn(len(ts.db))
			pos := geom.Pt(c.updRng.Float64()*w.Params.AreaMiles, c.updRng.Float64()*w.Params.AreaMiles)
			ts.db[j].Pos = pos
			cx, cy := curve.CellOf(pos)
			items = append(items, wire.IRItem{
				Epoch: c.epoch, Kind: wire.IRMove, ID: ts.db[j].ID, Cell: curve.CellRect(cx, cy)})
		default: // insert
			pos := geom.Pt(c.updRng.Float64()*w.Params.AreaMiles, c.updRng.Float64()*w.Params.AreaMiles)
			id := c.nextID
			c.nextID++
			ts.db = append(ts.db, broadcast.POI{ID: id, Pos: pos})
			cx, cy := curve.CellOf(pos)
			items = append(items, wire.IRItem{
				Epoch: c.epoch, Kind: wire.IRInsert, ID: id, Cell: curve.CellRect(cx, cy)})
		}
	}
	w.stats.POIUpdates += int64(n)
	w.stats.IRBroadcasts++

	// Retain the last IRWindow epochs, bounded by the wire item limit
	// (dropping the oldest record raises the horizon — clients that far
	// behind demote instead of repairing).
	c.records = append(c.records, epochRecord{epoch: c.epoch, items: items})
	for len(c.records) > w.Params.IRWindow && len(c.records) > 1 {
		c.records = c.records[1:]
	}
	total := 0
	for _, r := range c.records {
		total += len(r.items)
	}
	for total > wire.MaxIRItems && len(c.records) > 1 {
		total -= len(c.records[0].items)
		c.records = c.records[1:]
	}

	// Rebuild the ground truth and the broadcast schedule at the new
	// epoch. The loss seed mixes the epoch in so each rebuilt channel has
	// an independent (but reproducible) error stream.
	ts.truth = rtree.Bulk(ts.db, 16)
	bcfg := ts.bcfg
	if bcfg.LossRate > 0 {
		bcfg.LossSeed ^= c.epoch << 24
	}
	sched, err := broadcast.NewSchedule(ts.db, bcfg)
	if err != nil {
		// Cannot happen with a non-empty database; surface loudly if the
		// model drifts.
		if w.selfCheckErr == nil {
			w.selfCheckErr = fmt.Errorf("consistency: schedule rebuild at epoch %d: %w", c.epoch, err)
		}
		return
	}
	ts.sched = sched

	// Assemble, encode, and decode the IR frame. The decoded view is what
	// clients reconcile from: a frame the codec rejects would take the
	// whole layer down, exactly as it should.
	flat := make([]wire.IRItem, 0, total)
	for _, r := range c.records {
		flat = append(flat, r.items...)
	}
	ir := wire.InvalidationReport{Epoch: c.epoch, Horizon: c.records[0].epoch, Items: flat}
	enc, err := wire.EncodeInvalidationReport(ir)
	if err == nil {
		ir, err = wire.DecodeInvalidationReport(enc)
	}
	if err != nil {
		if w.selfCheckErr == nil {
			w.selfCheckErr = fmt.Errorf("consistency: IR frame at epoch %d: %w", c.epoch, err)
		}
		return
	}
	c.frameBytes = len(enc)
	invals := make([]cache.Invalidation, 0, len(ir.Items))
	for _, it := range ir.Items {
		invals = append(invals, cache.Invalidation{
			Epoch: it.Epoch, Kind: cache.InvalKind(it.Kind), ID: it.ID, Cell: it.Cell})
	}
	c.invals.Reset(ir.Epoch, ir.Horizon, invals)
}

// syncIR is the client side of one query's consistency pass, run before
// peer collection: TTL-expire the host's own cache, and if the host has
// not heard the current epoch's IR yet, tune in for it (paying the listen
// latency) and reconcile the own cache against it. Returns the broadcast
// slots spent listening; zero (with zero draws) when the layer is off and
// the host is current.
func (w *World) syncIR(idx int) int64 {
	own := &w.caches[idx]
	w.expireTTL(own)
	c := w.cons
	if c == nil {
		return 0
	}
	if c.heard[idx] >= c.epoch {
		return 0
	}
	if w.blackout.Down(idx, w.nowSec) {
		// The host sits in a blackout window: the downlink is dark and no
		// IR frame can be heard, in any mode. The host stays behind the
		// epoch and replays the missed reports at its first post-blackout
		// query — when the outage outlived the IR horizon, Reconcile
		// demotes or discards what it can no longer repair.
		w.stats.IRDeferred++
		return 0
	}
	var lost func() bool
	if c.loss > 0 {
		lost = func() bool {
			if c.lossRng.Float64() < c.loss {
				w.stats.IRListenRetries++
				return true
			}
			return false
		}
	}
	acc := w.data.sched.ListenIR(w.slotNow(), lost)
	w.stats.IRListens++
	w.stats.IRListenSlots += acc.Latency
	if acc.Abandoned {
		// Every IR replica within the wait bound was lost (sustained
		// outage the blackout schedule did not predict): the host learned
		// nothing, so it must neither reconcile against a frame it never
		// heard nor advance its epoch — only the spent slots are real.
		w.stats.IRListenAborts++
		return acc.Latency
	}
	rec := own.Reconcile(&w.qs.repair, &c.invals, w.Params.IRDiscard)
	w.stats.VRsReconciled += int64(rec.Repaired)
	w.stats.VRsDiscarded += int64(rec.Discarded)
	w.mx.observeReconcileCost(rec.Repaired, rec.Pieces)
	c.heard[idx] = c.epoch
	return acc.Latency
}

// expireTTL applies the VRTTLSec time-to-live to one cache. Lazy: caches
// are swept when their owner queries or serves, not on a global clock.
func (w *World) expireTTL(c *cache.Cache) {
	ttl := w.Params.VRTTLSec
	if ttl <= 0 {
		return
	}
	cutoff := int64(w.nowSec) - int64(ttl)
	if cutoff < 0 {
		return
	}
	w.stats.VRsExpired += int64(c.ExpireBefore(cutoff))
}

// admitShared is the receiving client's consistency gate for one staged
// region (pd, o), adding what it admits to dst. The own cache was gated
// when it was collected; every other region goes as the current IR
// frame's verdict says: a current one enters exact, a superseded one is
// surgically repaired, one older than the repair horizon is demoted to the
// probabilistic path — served, but never exact — and under the
// whole-discard ablation a superseded one is thrown away. A repaired
// region's pieces are read straight out of the repair scratch. It reports
// whether the gate changed what the region claims.
func (w *World) admitShared(dst *collection, pd core.PeerData, o origin) bool {
	if o.peer == trust.Self {
		dst.add(pd, o)
		return false
	}
	r := cache.Region{Rect: pd.VR, POIs: pd.POIs, Epoch: o.epoch}
	switch w.verdict(&r) {
	case cache.Current:
		dst.add(pd, o)
		return false
	case cache.Discard:
		w.stats.VRsDiscarded++
	case cache.Demote:
		// Missed-IR window policy: too old to repair, never exact again —
		// but still probabilistic evidence (Lemma 3.2), not garbage.
		w.stats.VRsDemoted++
		pd.Tainted = true
		dst.add(pd, o)
	case cache.Repair:
		pieces := cache.ReconcileRegion(&w.qs.repair, &r, &w.cons.invals)
		if pieces == nil {
			w.stats.VRsDiscarded++
			break
		}
		w.stats.VRsReconciled++
		w.mx.observeReconcileCost(1, len(pieces))
		o.repaired = true
		for i := range pieces {
			dst.add(core.PeerData{VR: pieces[i].Rect, POIs: pieces[i].POIs, Bounded: true}, o)
		}
	}
	return true
}

// verdict judges a collected region against the current IR frame
// (cache.InvalSet.Verdict): with the layer off every region is current.
func (w *World) verdict(r *cache.Region) cache.Verdict {
	if w.cons == nil {
		return cache.Current
	}
	return w.cons.invals.Verdict(r, w.Params.IRDiscard)
}

// epoch returns the current database epoch: zero when the consistency
// layer is off, where every cached region is of epoch zero.
func (w *World) epoch() int64 {
	if w.cons == nil {
		return 0
	}
	return w.cons.epoch
}
