// Package cache implements the mobile-host query-result cache of Section
// 4.1: every POI a host has verified is stored together with the MBR it
// was verified in (the host's verified region), and replacement follows
// the moving-direction + data-distance policy of Ren and Dunham ("Using
// semantic caching to manage location dependent data in mobile
// computing"), with LRU available as an ablation.
//
// A subtlety the paper leaves implicit: a verified region is a *promise*
// that the cache holds every POI inside it. Evicting an individual POI
// while keeping its region would poison peers with false negatives, so
// this cache evicts at region granularity (an entire verified region and
// its POIs leave together) and shrinks oversized incoming regions to the
// sub-rectangle actually covered by the POIs it can afford to keep. Both
// choices preserve the soundness invariant NNV relies on.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// Policy selects the replacement strategy.
type Policy int

const (
	// DirectionDistance evicts the region whose center is effectively
	// farthest from the host, penalizing regions behind its heading —
	// the policy of the paper (via Ren–Dunham).
	DirectionDistance Policy = iota
	// LRU evicts the least recently used region (ablation baseline).
	LRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case DirectionDistance:
		return "direction-distance"
	case LRU:
		return "lru"
	default:
		return "unknown"
	}
}

// Set implements flag.Value: it parses the -policy spelling, in any case.
func (p *Policy) Set(s string) error {
	switch strings.ToLower(s) {
	case "direction", "direction-distance":
		*p = DirectionDistance
	case "lru":
		*p = LRU
	default:
		return fmt.Errorf("unknown cache policy %q (want direction or lru)", s)
	}
	return nil
}

// behindPenalty scales the effective distance of regions that lie behind
// the host's direction of travel; they are evicted first.
const behindPenalty = 3.0

// Region is one verified region: an MBR and every POI inside it.
type Region struct {
	Rect  geom.Rect
	POIs  []broadcast.POI
	Stamp int64 // last use time (for LRU)
	// Epoch is the POI-database version this region was verified
	// against (consistency layer; zero when the POI set is static).
	Epoch int64
	// Born is the insertion time, for TTL expiry (VRTTLSec knob).
	Born int64
}

// Cache is a bounded store of verified regions. Copy a Cache only while
// it is empty: copies share region storage.
type Cache struct {
	// bounds is the MBR of regions, kept by every mutator (zero when
	// empty): a rectangle that misses it meets no cached region.
	bounds   geom.Rect
	regions  []Region
	size     int
	capacity int // maximum total POIs (the paper's CSize)
	policy   Policy
}

// cost is a region's charge against the capacity: its POI count, floored
// at one so that empty verified regions ("I know there is nothing here")
// still occupy a slot and the cache stays bounded.
func cost(r Region) int {
	if len(r.POIs) < 1 {
		return 1
	}
	return len(r.POIs)
}

// New returns an empty cache holding at most capacity POIs.
func New(capacity int, policy Policy) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{capacity: capacity, policy: policy}
}

// Size returns the capacity units in use: the cached POI count, with
// every empty region charged one unit.
func (c *Cache) Size() int { return c.size }

// Regions returns the cached verified regions. The slice and its members
// must not be modified.
func (c *Cache) Regions() []Region { return c.regions }

// Bounds returns the MBR of the cached regions; ok is false when the cache
// is empty.
func (c *Cache) Bounds() (mbr geom.Rect, ok bool) { return c.bounds, len(c.regions) > 0 }

// rebound recomputes bounds after the region list changed.
func (c *Cache) rebound() {
	c.bounds = geom.Rect{}
	if len(c.regions) == 0 {
		return
	}
	c.bounds = c.regions[0].Rect
	for i := 1; i < len(c.regions); i++ {
		c.bounds = c.bounds.Union(c.regions[i].Rect)
	}
}

// Clear removes everything.
func (c *Cache) Clear() {
	c.regions = nil
	c.size = 0
	c.bounds = geom.Rect{}
}

// Insert stores a verified region, evicting older regions by policy when
// the capacity is exceeded. pos and heading describe the host's current
// location and unit direction of travel (heading may be the zero vector
// when stationary). now is the current logical time.
//
// The invariant maintained is: for every stored region R, the cache holds
// exactly the POIs of the underlying database that lie inside R.Rect. An
// empty or non-finite rectangle promises nothing and is dropped.
func (c *Cache) Insert(r Region, pos, heading geom.Point, now int64) {
	if c.capacity == 0 || !r.Rect.Finite() || r.Rect.Empty() {
		return
	}
	r.Stamp = now
	r.Born = now
	if len(r.POIs) > c.capacity {
		r = shrinkRegion(r, c.capacity)
		if r.Rect.Empty() {
			return
		}
	}
	c.regions = append(c.regions, r)
	c.size += cost(r)
	c.evictUntilFit(pos, heading)
	c.rebound()
}

// Touch refreshes the LRU stamp of region index i.
func (c *Cache) Touch(i int, now int64) {
	if i >= 0 && i < len(c.regions) {
		c.regions[i].Stamp = now
	}
}

// evictUntilFit removes whole regions until size <= capacity, never
// evicting the most recently inserted region unless it alone overflows.
func (c *Cache) evictUntilFit(pos, heading geom.Point) {
	for c.size > c.capacity && len(c.regions) > 1 {
		victim := c.pickVictim(pos, heading, len(c.regions)-1)
		c.size -= cost(c.regions[victim])
		c.regions = append(c.regions[:victim], c.regions[victim+1:]...)
	}
	// Degenerate: a single region larger than capacity (can only happen
	// if capacity shrank conceptually; Insert pre-shrinks new regions).
	if c.size > c.capacity && len(c.regions) == 1 {
		r := shrinkRegion(c.regions[0], c.capacity)
		c.size = cost(r)
		if r.Rect.Empty() {
			c.Clear()
			return
		}
		c.regions[0] = r
	}
}

// pickVictim selects the region index to evict, skipping `protect`.
func (c *Cache) pickVictim(pos, heading geom.Point, protect int) int {
	best := -1
	bestScore := math.Inf(-1)
	for i, r := range c.regions {
		if i == protect {
			continue
		}
		var score float64
		switch c.policy {
		case LRU:
			score = -float64(r.Stamp) // oldest stamp evicted first
		default:
			score = effectiveDistance(pos, heading, r.Rect.Center())
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// effectiveDistance is the data distance of Ren–Dunham adjusted for the
// direction of travel: regions behind the host count as farther.
func effectiveDistance(pos, heading, target geom.Point) float64 {
	d := pos.Dist(target)
	if heading.Norm() == 0 {
		return d
	}
	to := target.Sub(pos)
	if to.Norm() == 0 {
		return 0
	}
	dot := heading.X*to.X + heading.Y*to.Y
	if dot < 0 {
		return d * behindPenalty
	}
	return d
}

// sortBufs recycles shrinkRegion's sort buffers. Insert has no parameter
// to carry caller scratch, and a buffer per Cache would be one per host.
var sortBufs = sync.Pool{New: func() any { return new([]broadcast.POI) }}

// shrinkRegion keeps the maxPOIs POIs closest to the region center and
// shrinks the rectangle to a sub-rectangle guaranteed to contain only
// kept POIs: the original rect intersected with the axis-aligned square
// inscribed in the disk of the last kept POI's distance. What it returns
// is one allocation of exactly the kept POIs' size.
func shrinkRegion(r Region, maxPOIs int) Region {
	if maxPOIs <= 0 {
		return Region{}
	}
	center := r.Rect.Center()
	buf := sortBufs.Get().(*[]broadcast.POI)
	defer sortBufs.Put(buf)
	pois := append((*buf)[:0], r.POIs...)
	*buf = pois
	slices.SortFunc(pois, func(a, b broadcast.POI) int {
		return cmp.Compare(a.Pos.DistSq(center), b.Pos.DistSq(center))
	})
	kept := pois[:maxPOIs]
	radius := kept[len(kept)-1].Pos.Dist(center)
	// Ties at the cut distance would leave dropped POIs inside the kept
	// radius; shrink strictly below the first dropped POI's distance.
	if len(pois) > maxPOIs {
		dropped := pois[maxPOIs].Pos.Dist(center)
		if dropped <= radius {
			// Cannot soundly separate kept from dropped; shrink to just
			// under the dropped distance and re-filter.
			radius = math.Nextafter(dropped, 0)
		}
	}
	half := radius / math.Sqrt2
	square := geom.RectAround(center, half)
	rect, ok := r.Rect.Intersect(square)
	if !ok {
		return Region{}
	}
	n := 0 // compact the survivors to the front of the buffer
	for _, p := range kept {
		if rect.Contains(p.Pos) {
			kept[n] = p
			n++
		}
	}
	var inside []broadcast.POI
	if n > 0 {
		inside = make([]broadcast.POI, n)
		copy(inside, kept)
	}
	return Region{Rect: rect, POIs: inside, Stamp: r.Stamp, Epoch: r.Epoch, Born: r.Born}
}
