package core

import (
	"sync"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// scratchPool recycles Scratch values across cold-start queries: the
// convenience entry points (NNV, SBNN, SBWQ) draw from it instead of
// allocating a fresh Scratch per query, so the cold path converges to the
// warm path's allocation profile once the pool holds grown buffers.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// getScratch returns a Scratch from the pool (possibly with warm, grown
// buffers). Results of the *Scratch functions alias the Scratch they
// ran on — callers must finish consuming (or copying) a result before
// returning its Scratch with putScratch.
func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch returns a Scratch to the pool. The caller must not use the
// Scratch, or any result aliasing it, afterwards.
func putScratch(s *Scratch) { scratchPool.Put(s) }

// cloneHeap copies a heap so the result survives its scratch. An empty
// heap clones to nil entries, matching what a fresh Scratch produces.
func cloneHeap(h *Heap) *Heap {
	out := &Heap{k: h.k}
	if len(h.entries) > 0 {
		out.entries = make([]Entry, len(h.entries))
		copy(out.entries, h.entries)
	}
	return out
}

// clonePOIs copies a POI slice, mapping empty to nil (what the
// fresh-Scratch paths historically returned).
func clonePOIs(pois []broadcast.POI) []broadcast.POI {
	if len(pois) == 0 {
		return nil
	}
	out := make([]broadcast.POI, len(pois))
	copy(out, pois)
	return out
}

// cloneMVR copies the union's members into a caller-owned RectUnion;
// derived caches rebuild lazily and answer identically.
func cloneMVR(u *geom.RectUnion) *geom.RectUnion {
	out := new(geom.RectUnion)
	out.CopyFrom(u)
	return out
}
