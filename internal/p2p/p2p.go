// Package p2p provides the single-hop ad-hoc network substrate: a uniform
// grid index over mobile-host positions supporting constant-time position
// updates and range lookups ("which peers can hear my request?").
//
// The paper's radio model is a disk of radius TxRange around the querying
// host (IEEE 802.11b/g abstracted to its reliable coverage range); a peer
// responds when it lies within that disk at the query instant.
package p2p

import (
	"fmt"
	"math"

	"lbsq/internal/geom"
)

// Network indexes host positions on a uniform grid. Host IDs are dense
// small integers assigned by the caller.
type Network struct {
	area     geom.Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32    // per-cell host lists
	pos      []geom.Point // host id -> position
	present  []bool       // host id -> registered?
	cellOf   []int        // host id -> cell index
	live     int          // registered host count (keeps Len O(1))
}

// NewNetwork creates a network over the service area with the given index
// cell size (usually the maximum transmission range).
func NewNetwork(area geom.Rect, cellSize float64) (*Network, error) {
	if area.Empty() {
		return nil, fmt.Errorf("p2p: empty area %v", area)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("p2p: cell size %v must be positive", cellSize)
	}
	cols := int(math.Ceil(area.Width() / cellSize))
	rows := int(math.Ceil(area.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Network{
		area:     area,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
	}, nil
}

// Len returns the number of registered hosts in O(1): a live-host counter
// is maintained by Update/Remove instead of scanning the presence table.
func (n *Network) Len() int { return n.live }

func (n *Network) cellIndex(p geom.Point) int {
	cx := int((p.X - n.area.Min.X) / n.cellSize)
	cy := int((p.Y - n.area.Min.Y) / n.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= n.cols {
		cx = n.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= n.rows {
		cy = n.rows - 1
	}
	return cy*n.cols + cx
}

// Update registers host id at position p, or moves it if already
// registered. IDs should be assigned densely from zero.
func (n *Network) Update(id int, p geom.Point) {
	for id >= len(n.pos) {
		n.pos = append(n.pos, geom.Point{})
		n.present = append(n.present, false)
		n.cellOf = append(n.cellOf, -1)
	}
	newCell := n.cellIndex(p)
	if n.present[id] {
		oldCell := n.cellOf[id]
		if oldCell == newCell {
			n.pos[id] = p
			return
		}
		n.removeFromCell(id, oldCell)
	}
	if !n.present[id] {
		n.live++
	}
	n.pos[id] = p
	n.present[id] = true
	n.cellOf[id] = newCell
	n.cells[newCell] = append(n.cells[newCell], int32(id))
}

// Remove unregisters a host.
func (n *Network) Remove(id int) {
	if id < 0 || id >= len(n.present) || !n.present[id] {
		return
	}
	n.removeFromCell(id, n.cellOf[id])
	n.present[id] = false
	n.cellOf[id] = -1
	n.live--
}

func (n *Network) removeFromCell(id, cell int) {
	list := n.cells[cell]
	for i, v := range list {
		if int(v) == id {
			list[i] = list[len(list)-1]
			n.cells[cell] = list[:len(list)-1]
			return
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
// excluding `exclude` (pass a negative value to exclude nobody). The
// result order is unspecified but deterministic for a fixed state.
func (n *Network) Neighbors(q geom.Point, radius float64, exclude int) []int {
	return n.AppendNeighbors(nil, q, radius, exclude)
}

// AppendNeighbors appends the IDs of every registered host within
// `radius` of q (excluding `exclude`) to dst and returns the extended
// slice — the zero-allocation variant of Neighbors for callers that keep
// a reusable buffer (pass dst[:0] to reuse its capacity). The append
// order is identical to Neighbors.
func (n *Network) AppendNeighbors(dst []int, q geom.Point, radius float64, exclude int) []int {
	if radius <= 0 {
		return dst
	}
	r2 := radius * radius
	cx0 := int((q.X - radius - n.area.Min.X) / n.cellSize)
	cx1 := int((q.X + radius - n.area.Min.X) / n.cellSize)
	cy0 := int((q.Y - radius - n.area.Min.Y) / n.cellSize)
	cy1 := int((q.Y + radius - n.area.Min.Y) / n.cellSize)
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 >= n.cols {
		cx1 = n.cols - 1
	}
	if cy1 >= n.rows {
		cy1 = n.rows - 1
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range n.cells[cy*n.cols+cx] {
				if int(id) == exclude {
					continue
				}
				if n.pos[id].DistSq(q) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// NeighborsMultiHop returns the hosts reachable from q within the given
// number of ad-hoc hops: hop 1 is every host within `radius` of q; hop
// h+1 adds every host within `radius` of a hop-h host. The result
// excludes `exclude` and is deduplicated. hops <= 1 behaves exactly like
// Neighbors. Multi-hop relaying is the natural extension of the paper's
// single-hop sharing (its cooperative-caching citations [4, 5] relay
// across hops); it trades extra ad-hoc traffic for reach in sparse areas.
func (n *Network) NeighborsMultiHop(q geom.Point, radius float64, hops, exclude int) []int {
	return n.AppendNeighborsMultiHop(nil, q, radius, hops, exclude)
}

// AppendNeighborsMultiHop is NeighborsMultiHop appending into a
// caller-owned buffer (pass dst[:0] to reuse capacity). The single-hop
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
