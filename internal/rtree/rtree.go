// Package rtree is the wireless information server's spatial database: a
// static in-memory R-tree over point data, packed by Sort-Tile-Recursive
// bulk loading, with window queries and best-first (Hjaltason–Samet)
// k-nearest-neighbor search. It is the ground truth for every query the
// simulator issues; a changed POI set is packed into a new tree.
package rtree

import (
	"container/heap"
	"math"
	"sort"

	"lbsq/internal/geom"
)

// Item is a point object stored in the tree.
type Item struct {
	ID  int64
	Pos geom.Point
}

// DefaultMaxEntries is the node fan-out used when callers pass a value
// below two.
const DefaultMaxEntries = 16

type node struct {
	leaf     bool
	bounds   geom.Rect
	children []*node // internal nodes
	items    []Item  // leaf nodes
}

// Tree is an R-tree over point items, built by Bulk.
type Tree struct {
	root *node
}

// Bulk builds a tree from items using Sort-Tile-Recursive packing, which
// produces near-optimal leaves for static data sets such as a POI
// database.
func Bulk(items []Item, maxEntries int) *Tree {
	if maxEntries <= 1 {
		maxEntries = DefaultMaxEntries
	}
	if len(items) == 0 {
		return &Tree{root: &node{leaf: true}}
	}
	return &Tree{root: buildUp(strPack(items, maxEntries), maxEntries)}
}

// strPack tiles items into leaf nodes: sort by X, slice into vertical
// strips of ~sqrt(n/M) each, sort each strip by Y, and cut runs of M.
func strPack(items []Item, m int) []*node {
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pos.X < sorted[j].Pos.X })
	n := len(sorted)
	leafCount := (n + m - 1) / m
	stripCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perStrip := (n + stripCount - 1) / stripCount

	var leaves []*node
	for s := 0; s < n; s += perStrip {
		e := s + perStrip
		if e > n {
			e = n
		}
		strip := sorted[s:e]
		sort.Slice(strip, func(i, j int) bool { return strip[i].Pos.Y < strip[j].Pos.Y })
		for i := 0; i < len(strip); i += m {
			j := i + m
			if j > len(strip) {
				j = len(strip)
			}
			leaf := &node{leaf: true, items: append([]Item(nil), strip[i:j]...)}
			leaf.recomputeBounds()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// buildUp packs nodes level by level until a single root remains.
func buildUp(level []*node, m int) *node {
	for len(level) > 1 {
		sort.Slice(level, func(i, j int) bool {
			return level[i].bounds.Center().X < level[j].bounds.Center().X
		})
		groupCount := (len(level) + m - 1) / m
		stripCount := int(math.Ceil(math.Sqrt(float64(groupCount))))
		perStrip := (len(level) + stripCount - 1) / stripCount
		var next []*node
		for s := 0; s < len(level); s += perStrip {
			e := s + perStrip
			if e > len(level) {
				e = len(level)
			}
			strip := level[s:e]
			sort.Slice(strip, func(i, j int) bool {
				return strip[i].bounds.Center().Y < strip[j].bounds.Center().Y
			})
			for i := 0; i < len(strip); i += m {
				j := i + m
				if j > len(strip) {
					j = len(strip)
				}
				parent := &node{children: append([]*node(nil), strip[i:j]...)}
				parent.recomputeBounds()
				next = append(next, parent)
			}
		}
		level = next
	}
	return level[0]
}

// recomputeBounds sets n's MBR from its (never empty) items or children.
func (n *node) recomputeBounds() {
	if n.leaf {
		n.bounds = geom.Rect{Min: n.items[0].Pos, Max: n.items[0].Pos}
		for _, it := range n.items[1:] {
			n.bounds = n.bounds.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
		}
		return
	}
	n.bounds = n.children[0].bounds
	for _, c := range n.children[1:] {
		n.bounds = n.bounds.Union(c.bounds)
	}
}

// Window returns every item inside the closed rectangle r.
func (t *Tree) Window(r geom.Rect) []Item { return t.AppendWindow(nil, r) }

// AppendWindow appends every item inside the closed rectangle r to dst
// (an empty tree's root is an empty leaf).
func (t *Tree) AppendWindow(dst []Item, r geom.Rect) []Item { return t.root.appendWindow(dst, r) }

func (n *node) appendWindow(dst []Item, r geom.Rect) []Item {
	if n.leaf {
		for _, it := range n.items {
			if r.Contains(it.Pos) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		if c.bounds.Intersects(r) {
			dst = c.appendWindow(dst, r)
		}
	}
	return dst
}

// nnEntry is a priority-queue element for best-first search.
type nnEntry struct {
	dist     float64
	node     *node
	item     Item
	leafItem bool
}

type nnQueue []nnEntry

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// KNN returns the k nearest items to q in ascending distance order using
// best-first (incremental) search.
func (t *Tree) KNN(q geom.Point, k int) []Item {
	if k <= 0 {
		return nil
	}
	pq := &nnQueue{{dist: t.root.bounds.Dist(q), node: t.root}}
	var out []Item
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(nnEntry)
		if e.leafItem {
			out = append(out, e.item)
			continue
		}
		n := e.node
		if n.leaf {
			for _, it := range n.items {
				heap.Push(pq, nnEntry{dist: it.Pos.Dist(q), item: it, leafItem: true})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(pq, nnEntry{dist: c.bounds.Dist(q), node: c})
		}
	}
	return out
}
