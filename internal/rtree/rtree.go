// Package rtree is the wireless information server's spatial database: a
// static in-memory R-tree over point data, packed by Sort-Tile-Recursive
// bulk loading, with window queries and best-first (Hjaltason–Samet)
// k-nearest-neighbor search. It is the ground truth for every query the
// simulator issues; a changed POI set is packed into a new tree.
package rtree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Item is a point object stored in the tree: a POI, so answers need no copy.
type Item = broadcast.POI

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
	level := strTile(slices.Clone(items), maxEntries,
		func(it Item) geom.Point { return it.Pos },
		func(run []Item) *node { return &node{leaf: true, items: run} })
	for len(level) > 1 {
		level = strTile(level, maxEntries,
			func(n *node) geom.Point { return n.bounds.Center() },
			func(run []*node) *node { return &node{children: run} })
	}
	return &Tree{root: level[0]}
}

// strTile packs one STR level, sorting xs in place: sort by center X,
// slice into vertical strips of ~sqrt(len/m) groups each, sort each strip
// by center Y, and wrap a copy of each run of m in a node.
func strTile[T any](xs []T, m int, center func(T) geom.Point, wrap func([]T) *node) []*node {
	slices.SortFunc(xs, func(a, b T) int { return cmp.Compare(center(a).X, center(b).X) })
	stripCount := int(math.Ceil(math.Sqrt(float64((len(xs) + m - 1) / m))))
	perStrip := (len(xs) + stripCount - 1) / stripCount
	var out []*node
	for s := 0; s < len(xs); s += perStrip {
		strip := xs[s:min(s+perStrip, len(xs))]
		slices.SortFunc(strip, func(a, b T) int { return cmp.Compare(center(a).Y, center(b).Y) })
		for i := 0; i < len(strip); i += m {
			n := wrap(slices.Clone(strip[i:min(i+m, len(strip))]))
			n.recomputeBounds()
			out = append(out, n)
		}
	}
	return out
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

// KNN returns the k nearest items to q in ascending distance order.
func (t *Tree) KNN(q geom.Point, k int) []Item { return t.AppendKNN(nil, q, k, &KNNScratch{}) }

// KNNScratch is the reusable state of AppendKNN.
type KNNScratch struct {
	frontier []ranked[*node] // min-heap on dist
	best     []ranked[Item]  // ascending, at most k long
}

// ranked is a node or an item with its distance to the query point.
type ranked[T any] struct {
	dist float64
	v    T
}

// AppendKNN appends the k nearest items to q to dst in ascending distance
// order (ties in any order) by best-first search: nodes leave a min-heap
// nearest first, and the answer is a sorted run of the best k items seen.
// An item or a child enters only if it is strictly nearer than the
// current k-th, and the search stops at the first node that is not. The
// metric is Point.Dist and Rect.Dist, so the k-th distance is bit-equal
// to any exact search's. With warm scratch and a dst of enough capacity
// it allocates nothing.
func (t *Tree) AppendKNN(dst []Item, q geom.Point, k int, s *KNNScratch) []Item {
	if k <= 0 {
		return dst
	}
	s.best = s.best[:0]
	s.frontier = append(s.frontier[:0], ranked[*node]{t.root.bounds.Dist(q), t.root})
	for len(s.frontier) > 0 {
		e := s.pop()
		if !s.beats(e.dist, k) {
			break
		}
		for _, it := range e.v.items { // a leaf's; an internal node has none
			if d := it.Pos.Dist(q); s.beats(d, k) {
				run := s.best[:min(len(s.best), k-1)]
				i := sort.Search(len(run), func(j int) bool { return run[j].dist > d })
				s.best = slices.Insert(run, i, ranked[Item]{d, it})
			}
		}
		for _, c := range e.v.children {
			if d := c.bounds.Dist(q); s.beats(d, k) {
				s.push(ranked[*node]{d, c})
			}
		}
	}
	for _, b := range s.best {
		dst = append(dst, b.v)
	}
	return dst
}

// beats reports whether distance d is strictly nearer than the k-th best.
func (s *KNNScratch) beats(d float64, k int) bool { return len(s.best) < k || d < s.best[k-1].dist }

func (s *KNNScratch) push(e ranked[*node]) {
	h := append(s.frontier, e)
	i := len(h) - 1
	for ; i > 0 && h[(i-1)/2].dist > e.dist; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i], s.frontier = e, h
}

func (s *KNNScratch) pop() ranked[*node] {
	h, n := s.frontier, len(s.frontier)-1
	h[0], h[n] = h[n], h[0]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h[c+1].dist < h[c].dist {
			c++
		}
		if h[i].dist <= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	s.frontier = h[:n]
	return h[n]
}
