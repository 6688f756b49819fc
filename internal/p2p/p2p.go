// Package p2p provides the single-hop ad-hoc network substrate: a uniform
// grid index over mobile-host positions answering range lookups ("which
// peers can hear my request?").
//
// The paper's radio model is a disk of radius TxRange around the querying
// host (IEEE 802.11b/g abstracted to its reliable coverage range); a peer
// responds when it lies within that disk at the query instant.
package p2p

import (
	"fmt"
	"math"
	"slices"

	"lbsq/internal/geom"
)

// Network indexes host positions on a uniform grid. Host IDs are dense
// small integers assigned by the caller.
//
// Update only records a position and marks the index stale. The first
// lookup after a change rebuilds it with one counting sort by cell, so a
// tick that moves every host pays one O(hosts + cells) pass instead of one
// list edit per host. Lookups are therefore writers: a Network must not be
// shared between goroutines.
type Network struct {
	area    geom.Rect
	perCell float64 // 1 / cell size
	cols    int
	rows    int
	pos     []geom.Point // host id -> position
	present []bool       // host id -> registered?
	live    int          // registered host count

	// The index, current unless stale: cell c (row-major, so the cells
	// cx0…cx1 of one row are one run) holds ids[start[c]:start[c+1]] in
	// ascending order. Positions are read from pos rather than copied
	// beside the IDs: on a 45k-host tick the copy's scattered writes cost
	// more than the lookups' scattered reads.
	stale bool
	start []int32
	ids   []int32
	cell  []int32 // rebuild scratch: host id -> cell
}

// NewNetwork creates a network over the service area with the given index
// cell size (usually the maximum transmission range).
func NewNetwork(area geom.Rect, cellSize float64) (*Network, error) {
	if area.Empty() || !area.Finite() {
		return nil, fmt.Errorf("p2p: empty or non-finite area %v", area)
	}
	if !(cellSize > 0 && cellSize <= math.MaxFloat64) {
		return nil, fmt.Errorf("p2p: cell size %v must be positive and finite", cellSize)
	}
	cols := max(1, int(math.Ceil(area.Width()/cellSize)))
	rows := max(1, int(math.Ceil(area.Height()/cellSize)))
	return &Network{
		area:    area,
		perCell: 1 / cellSize,
		cols:    cols,
		rows:    rows,
		start:   make([]int32, cols*rows+1),
	}, nil
}

// coord returns the grid coordinate of offset d from the area's lower
// edge, clamped to [0, cells): positions outside the area fall in the
// border cells, and NaN in the first.
func (n *Network) coord(d float64, cells int) int {
	v := d * n.perCell
	if !(v >= 0) {
		return 0
	}
	if v >= float64(cells) {
		return cells - 1
	}
	return int(v)
}

func (n *Network) cellIndex(p geom.Point) int {
	return n.coord(p.Y-n.area.Min.Y, n.rows)*n.cols + n.coord(p.X-n.area.Min.X, n.cols)
}

// Update registers host id at position p, or moves it if already
// registered. IDs should be assigned densely from zero.
func (n *Network) Update(id int, p geom.Point) {
	for id >= len(n.pos) {
		n.pos = append(n.pos, geom.Point{})
		n.present = append(n.present, false)
		n.cell = append(n.cell, 0)
	}
	if !n.present[id] {
		n.present[id] = true
		n.live++
	}
	n.pos[id] = p
	n.stale = true
}

// index rebuilds the cell index after a change: count the hosts per
// cell, turn the counts into running sums (each the end of its cell's
// run), then scatter the IDs from the highest down, filling every run
// from its end. That leaves start[c] at the beginning of run c and each
// run in ascending ID order.
func (n *Network) index() {
	if !n.stale {
		return
	}
	n.stale = false
	start := n.start
	clear(start)
	for id, ok := range n.present {
		if ok {
			c := n.cellIndex(n.pos[id])
			n.cell[id] = int32(c)
			start[c]++
		}
	}
	var sum int32
	for c := range start {
		sum += start[c]
		start[c] = sum
	}
	n.ids = slices.Grow(n.ids[:0], n.live)[:n.live]
	for id := len(n.present) - 1; id >= 0; id-- {
		if n.present[id] {
			c := n.cell[id]
			start[c]--
			n.ids[start[c]] = int32(id)
		}
	}
}

// Position returns the registered position of a host.
func (n *Network) Position(id int) (geom.Point, bool) {
	if id < 0 || id >= len(n.present) || !n.present[id] {
		return geom.Point{}, false
	}
	return n.pos[id], true
}

// Neighbors returns the IDs of every registered host within `radius` of q,
// excluding `exclude` (pass a negative value to exclude nobody), in
// ascending ID order.
func (n *Network) Neighbors(q geom.Point, radius float64, exclude int) []int {
	return n.AppendNeighbors(nil, q, radius, exclude)
}

// AppendNeighbors appends the IDs of every registered host within
// `radius` of q (excluding `exclude`) to dst in ascending ID order and
// returns the extended slice — the zero-allocation variant of Neighbors
// for callers that keep a reusable buffer (pass dst[:0] to reuse its
// capacity). A host is within range when its squared distance to q is at
// most radius², so the result is a function of the registered positions
// alone, not of the order they were registered or moved in. An Update is
// visible to the next lookup.
func (n *Network) AppendNeighbors(dst []int, q geom.Point, radius float64, exclude int) []int {
	if radius <= 0 {
		return dst
	}
	n.index()
	first := len(dst)
	r2 := radius * radius
	cx0 := n.coord(q.X-radius-n.area.Min.X, n.cols)
	cx1 := n.coord(q.X+radius-n.area.Min.X, n.cols)
	cy0 := n.coord(q.Y-radius-n.area.Min.Y, n.rows)
	cy1 := n.coord(q.Y+radius-n.area.Min.Y, n.rows)
	for cy := cy0; cy <= cy1; cy++ {
		lo, hi := n.start[cy*n.cols+cx0], n.start[cy*n.cols+cx1+1]
		for _, id := range n.ids[lo:hi] {
			if n.pos[id].DistSq(q) <= r2 && int(id) != exclude {
				dst = append(dst, int(id))
			}
		}
	}
	slices.Sort(dst[first:])
	return dst
}

// AppendNeighborsMultiHop appends to dst the hosts reachable from q
// within the given number of ad-hoc hops: hop 1 is every host within
// `radius` of q; hop h+1 adds every host within `radius` of a hop-h host.
// The result excludes `exclude` and is deduplicated. hops <= 1 behaves
// exactly like AppendNeighbors. Multi-hop relaying is the natural
// extension of the paper's single-hop sharing (its cooperative-caching
// citations [4, 5] relay across hops); it trades extra ad-hoc traffic for
// reach in sparse areas. Pass dst[:0] to reuse capacity: the single-hop
// default path allocates nothing; multi-hop frontiers still allocate
// their dedup state, which only non-default configurations pay for.
func (n *Network) AppendNeighborsMultiHop(dst []int, q geom.Point, radius float64, hops, exclude int) []int {
	if hops <= 1 {
		return n.AppendNeighbors(dst, q, radius, exclude)
	}
	seen := make(map[int]bool)
	frontier := n.Neighbors(q, radius, exclude)
	out := dst
	for _, id := range frontier {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for hop := 2; hop <= hops && len(frontier) > 0; hop++ {
		var next []int
		for _, id := range frontier {
			pos, ok := n.Position(id)
			if !ok {
				continue
			}
			for _, peer := range n.Neighbors(pos, radius, exclude) {
				if !seen[peer] {
					seen[peer] = true
					next = append(next, peer)
					out = append(out, peer)
				}
			}
		}
		frontier = next
	}
	return out
}
