// Package rtree implements an in-memory R-tree over point data (Guttman,
// SIGMOD 1984) with quadratic node splitting, STR bulk loading, window
// queries, and both best-first (Hjaltason–Samet) and depth-first
// branch-and-bound (Roussopoulos et al.) k-nearest-neighbor search.
//
// In the reproduction it plays two roles: it is the wireless information
// server's spatial database (ground truth for every query the simulator
// issues), and it is the classical random-access-disk baseline the paper
// contrasts with sequential on-air access.
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

// DefaultMaxEntries is the node fan-out used when callers pass a
// non-positive value.
const DefaultMaxEntries = 16

type node struct {
	leaf     bool
	bounds   geom.Rect
	children []*node // internal nodes
	items    []Item  // leaf nodes
	parent   *node
}

// Tree is an R-tree over point items. The zero value is not usable; use
// New or Bulk.
type Tree struct {
	root       *node
	maxEntries int
	minEntries int
	size       int
}

// New returns an empty tree with the given maximum node fan-out.
func New(maxEntries int) *Tree {
	if maxEntries <= 1 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
	}
	if t.minEntries < 1 {
		t.minEntries = 1
	}
	t.root = &node{leaf: true}
	return t
}

// Bulk builds a tree from items using Sort-Tile-Recursive packing, which
// produces near-optimal leaves for static data sets such as a POI
// database.
func Bulk(items []Item, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	leaves := strPack(items, t.maxEntries)
	t.size = len(items)
	t.root = buildUp(leaves, t.maxEntries)
	setParents(t.root)
	return t
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

func setParents(n *node) {
	for _, c := range n.children {
		c.parent = n
		setParents(c)
	}
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Bounds returns the MBR of all stored items; ok is false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.bounds, true
}

func (n *node) recomputeBounds() {
	if n.leaf {
		if len(n.items) == 0 {
			n.bounds = geom.Rect{}
			return
		}
		b := geom.Rect{Min: n.items[0].Pos, Max: n.items[0].Pos}
		for _, it := range n.items[1:] {
			b = b.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
		}
		n.bounds = b
		return
	}
	if len(n.children) == 0 {
		n.bounds = geom.Rect{}
		return
	}
	b := n.children[0].bounds
	for _, c := range n.children[1:] {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	leaf := t.chooseLeaf(t.root, it.Pos)
	leaf.items = append(leaf.items, it)
	leaf.bounds = extend(leaf, it.Pos)
	t.size++
	if len(leaf.items) > t.maxEntries {
		t.splitNode(leaf)
	} else {
		t.adjustUp(leaf.parent)
	}
}

func extend(n *node, p geom.Point) geom.Rect {
	pt := geom.Rect{Min: p, Max: p}
	if n.leaf && len(n.items) == 1 {
		return pt
	}
	return n.bounds.Union(pt)
}

func (t *Tree) chooseLeaf(n *node, p geom.Point) *node {
	for !n.leaf {
		best := n.children[0]
		bestEnl := enlargement(best.bounds, p)
		for _, c := range n.children[1:] {
			enl := enlargement(c.bounds, p)
			if enl < bestEnl || (enl == bestEnl && c.bounds.Area() < best.bounds.Area()) {
				best, bestEnl = c, enl
			}
		}
		n = best
	}
	return n
}

func enlargement(r geom.Rect, p geom.Point) float64 {
	grown := r.Union(geom.Rect{Min: p, Max: p})
	return grown.Area() - r.Area()
}

// splitNode splits an overflowing node with Guttman's quadratic algorithm
// and propagates upward.
func (t *Tree) splitNode(n *node) {
	var sibling *node
	if n.leaf {
		a, b := quadraticSplitItems(n.items, t.minEntries)
		n.items = a
		sibling = &node{leaf: true, items: b}
	} else {
		a, b := quadraticSplitNodes(n.children, t.minEntries)
		n.children = a
		sibling = &node{children: b}
		for _, c := range sibling.children {
			c.parent = sibling
		}
	}
	n.recomputeBounds()
	sibling.recomputeBounds()

	if n.parent == nil {
		newRoot := &node{children: []*node{n, sibling}}
		n.parent = newRoot
		sibling.parent = newRoot
		newRoot.recomputeBounds()
		t.root = newRoot
		return
	}
	p := n.parent
	sibling.parent = p
	p.children = append(p.children, sibling)
	p.recomputeBounds()
	if len(p.children) > t.maxEntries {
		t.splitNode(p)
	} else {
		t.adjustUp(p.parent)
	}
}

func (t *Tree) adjustUp(n *node) {
	for n != nil {
		n.recomputeBounds()
		n = n.parent
	}
}

func quadraticSplitItems(items []Item, min int) (a, b []Item) {
	// Pick the pair of seeds wasting the most area together.
	si, sj := 0, 1
	worst := -1.0
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			r := geom.Rect{Min: items[i].Pos, Max: items[i].Pos}.
				Union(geom.Rect{Min: items[j].Pos, Max: items[j].Pos})
			if w := r.Area(); w > worst {
				worst, si, sj = w, i, j
			}
		}
	}
	a = []Item{items[si]}
	b = []Item{items[sj]}
	ra := geom.Rect{Min: items[si].Pos, Max: items[si].Pos}
	rb := geom.Rect{Min: items[sj].Pos, Max: items[sj].Pos}
	for k, it := range items {
		if k == si || k == sj {
			continue
		}
		// Force balance when one side must absorb the rest.
		if len(a) >= len(items)-min {
			b = append(b, it)
			rb = rb.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
			continue
		}
		if len(b) >= len(items)-min {
			a = append(a, it)
			ra = ra.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
			continue
		}
		ea := ra.Union(geom.Rect{Min: it.Pos, Max: it.Pos}).Area() - ra.Area()
		eb := rb.Union(geom.Rect{Min: it.Pos, Max: it.Pos}).Area() - rb.Area()
		if ea < eb || (ea == eb && len(a) <= len(b)) {
			a = append(a, it)
			ra = ra.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
		} else {
			b = append(b, it)
			rb = rb.Union(geom.Rect{Min: it.Pos, Max: it.Pos})
		}
	}
	return a, b
}

func quadraticSplitNodes(nodes []*node, min int) (a, b []*node) {
	si, sj := 0, 1
	worst := -1.0
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			r := nodes[i].bounds.Union(nodes[j].bounds)
			w := r.Area() - nodes[i].bounds.Area() - nodes[j].bounds.Area()
			if w > worst {
				worst, si, sj = w, i, j
			}
		}
	}
	a = []*node{nodes[si]}
	b = []*node{nodes[sj]}
	ra, rb := nodes[si].bounds, nodes[sj].bounds
	for k, c := range nodes {
		if k == si || k == sj {
			continue
		}
		if len(a) >= len(nodes)-min {
			b = append(b, c)
			rb = rb.Union(c.bounds)
			continue
		}
		if len(b) >= len(nodes)-min {
			a = append(a, c)
			ra = ra.Union(c.bounds)
			continue
		}
		ea := ra.Union(c.bounds).Area() - ra.Area()
		eb := rb.Union(c.bounds).Area() - rb.Area()
		if ea < eb || (ea == eb && len(a) <= len(b)) {
			a = append(a, c)
			ra = ra.Union(c.bounds)
		} else {
			b = append(b, c)
			rb = rb.Union(c.bounds)
		}
	}
	return a, b
}

// Delete removes the item with the given ID at pos. It reports whether an
// item was removed. Underflowing nodes are condensed and their remaining
// items reinserted (Guttman's CondenseTree).
func (t *Tree) Delete(id int64, pos geom.Point) bool {
	leaf := t.findLeaf(t.root, id, pos)
	if leaf == nil {
		return false
	}
	for i, it := range leaf.items {
		if it.ID == id {
			leaf.items = append(leaf.items[:i], leaf.items[i+1:]...)
			break
		}
	}
	t.size--
	t.condense(leaf)
	return true
}

func (t *Tree) findLeaf(n *node, id int64, pos geom.Point) *node {
	if n.leaf {
		for _, it := range n.items {
			if it.ID == id {
				return n
			}
		}
		return nil
	}
	for _, c := range n.children {
		if c.bounds.Contains(pos) {
			if found := t.findLeaf(c, id, pos); found != nil {
				return found
			}
		}
	}
	return nil
}

func (t *Tree) condense(n *node) {
	var orphans []Item
	for n.parent != nil {
		p := n.parent
		under := (n.leaf && len(n.items) < t.minEntries) ||
			(!n.leaf && len(n.children) < t.minEntries)
		if under {
			// Detach n and collect its items for reinsertion.
			for i, c := range p.children {
				if c == n {
					p.children = append(p.children[:i], p.children[i+1:]...)
					break
				}
			}
			orphans = append(orphans, collectItems(n)...)
		} else {
			n.recomputeBounds()
		}
		n = p
	}
	t.root.recomputeBounds()
	// Shrink a root with a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.root.parent = nil
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true}
	}
	t.size -= len(orphans)
	for _, it := range orphans {
		t.Insert(it)
	}
}

func collectItems(n *node) []Item {
	if n.leaf {
		return n.items
	}
	var out []Item
	for _, c := range n.children {
		out = append(out, collectItems(c)...)
	}
	return out
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

// All returns every stored item.
func (t *Tree) All() []Item {
	if t.size == 0 {
		return nil
	}
	return collectItems(t.root)
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
	if k <= 0 || t.size == 0 {
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

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}
