// Package lbsq is a from-scratch reproduction of "Location-based Spatial
// Queries with Data Sharing in Wireless Broadcast Environments" (Ku,
// Zimmermann, Wang; ICDE 2007): sharing-based processing of k-nearest-
// neighbor and window queries by mobile hosts that combine cached results
// from single-hop peers with a Hilbert-indexed (1, m) wireless broadcast
// channel.
//
// The package is a façade over the internal subsystems:
//
//   - Server wraps the POI database and its broadcast schedule (the base
//     station of the paper's system model).
//   - Client is one mobile host: it runs SBNN/SBWQ queries against its
//     peers' shared caches, falls back to the broadcast channel with
//     search-bound packet filtering, and maintains its own sound verified
//     cache to share onward.
//   - NewSimulation and the Table 3 presets (LACity, SyntheticSuburbia,
//     RiversideCounty) drive the full system model used to regenerate the
//     paper's figures.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package lbsq

import (
	"fmt"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/sim"
)

// Re-exported vocabulary types. Aliases keep the public API and the
// internal packages structurally identical.
type (
	// Point is a location in the plane (miles in the simulator).
	Point = geom.Point
	// Rect is a closed axis-aligned rectangle (an MBR).
	Rect = geom.Rect
	// RectUnion is a union of rectangles — the merged verified region.
	RectUnion = geom.RectUnion
	// POI is a point of interest.
	POI = broadcast.POI
	// PeerData is one shared verified region with its POIs.
	PeerData = core.PeerData
	// Outcome classifies how a query was resolved.
	Outcome = core.Outcome
	// Heap is the NNV result heap (Table 2 of the paper).
	Heap = core.Heap
	// HeapEntry is one heap row.
	HeapEntry = core.Entry
	// HeapState is the six-state classification of Section 3.3.3.
	HeapState = core.State
	// SBNNResult is the outcome of a sharing-based kNN query.
	SBNNResult = core.SBNNResult
	// SBWQResult is the outcome of a sharing-based window query.
	SBWQResult = core.SBWQResult
	// SBNNConfig parameterizes SBNN.
	SBNNConfig = core.SBNNConfig
	// Access is a broadcast channel cost record.
	Access = broadcast.Access
	// Bounds are on-air search bounds derived from partial results.
	Bounds = broadcast.Bounds
	// BroadcastConfig parameterizes the (1, m) air index.
	BroadcastConfig = broadcast.Config
	// Params is a full simulation parameter set (Table 4).
	Params = sim.Params
	// FaultProfile configures the fault-injection layer (lossy ad-hoc
	// channels, broadcast packet loss, stale peer caches). The zero value
	// is the paper's ideal substrate.
	FaultProfile = faults.Profile
	// Stats aggregates simulation statistics.
	Stats = sim.Stats
	// World is a running simulation.
	World = sim.World
	// CachePolicy selects the client cache replacement policy.
	CachePolicy = cache.Policy
)

// Re-exported constants.
const (
	OutcomeVerified    = core.OutcomeVerified
	OutcomeApproximate = core.OutcomeApproximate
	OutcomeBroadcast   = core.OutcomeBroadcast

	CachePolicyDirectionDistance = cache.DirectionDistance
	CachePolicyLRU               = cache.LRU

	// KNNQuery / WindowQuery select the simulated workload.
	KNNQuery    = sim.KNNQuery
	WindowQuery = sim.WindowQuery

	// MetersPerMile converts radio ranges to world units.
	MetersPerMile = sim.MetersPerMile
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect constructs a normalized Rect from two opposite corners.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// RectAround returns the square of half-side r centered at c.
func RectAround(c Point, r float64) Rect { return geom.RectAround(c, r) }

// CorrectnessProbability is Lemma 3.2: e^(-lambda·area).
func CorrectnessProbability(lambda, area float64) float64 {
	return core.CorrectnessProbability(lambda, area)
}

// LACity, SyntheticSuburbia and RiversideCounty are the Table 3 presets.
func LACity() Params            { return sim.LACity() }
func SyntheticSuburbia() Params { return sim.SyntheticSuburbia() }
func RiversideCounty() Params   { return sim.RiversideCounty() }

// NewSimulation builds the full system model of Section 4.1.
func NewSimulation(p Params) (*World, error) { return sim.NewWorld(p) }

// Server is the wireless information server: the POI database and the
// broadcast channel it operates.
type Server struct {
	area   Rect
	db     []POI
	sched  *broadcast.Schedule
	lambda float64
}

// NewServer builds a server broadcasting the given POIs over the service
// area. cfg.Area is overridden with the provided area; zero-valued fields
// of cfg take the documented defaults.
func NewServer(area Rect, pois []POI, cfg BroadcastConfig) (*Server, error) {
	if area.Empty() {
		return nil, fmt.Errorf("lbsq: empty service area")
	}
	cfg.Area = area
	sched, err := broadcast.NewSchedule(pois, cfg)
	if err != nil {
		return nil, err
	}
	return &Server{
		area:   area,
		db:     append([]POI(nil), pois...),
		sched:  sched,
		lambda: float64(len(pois)) / area.Area(),
	}, nil
}

// Area returns the service area.
func (s *Server) Area() Rect { return s.area }

// POIs returns the broadcast database.
func (s *Server) POIs() []POI { return s.db }

// Schedule exposes the broadcast schedule.
func (s *Server) Schedule() *broadcast.Schedule { return s.sched }

// POIDensity returns the database density (POIs per square unit) — the
// lambda of the correctness model.
func (s *Server) POIDensity() float64 { return s.lambda }

// Client is one mobile host: a position, a bounded verified cache, and a
// local clock on the broadcast slot timeline.
type Client struct {
	server  *Server
	pos     Point
	heading Point
	cache   *cache.Cache
	nowSlot int64

	// AcceptApproximate lets KNN accept approximate full heaps.
	AcceptApproximate bool
	// MinCorrectness is the approximate acceptance threshold (default
	// 0.5, the paper's experimental setting).
	MinCorrectness float64
	// DisableOwnCache stops the client from consulting its own cached
	// verified regions before its peers'. By default a host's own cache
	// is its nearest peer — a motorist re-asking a question shortly
	// after moving re-verifies the previous answer locally.
	DisableOwnCache bool
}

// NewClient creates a client at pos with the given cache capacity (in
// POIs, the paper's CSize).
func NewClient(server *Server, pos Point, cacheCapacity int) *Client {
	return &Client{
		server:         server,
		pos:            pos,
		cache:          cache.New(cacheCapacity, cache.DirectionDistance),
		MinCorrectness: 0.5,
	}
}

// Pos returns the client's position.
func (c *Client) Pos() Point { return c.pos }

// MoveTo relocates the client; the heading used by the cache replacement
// policy follows the movement direction.
func (c *Client) MoveTo(p Point) {
	d := p.Sub(c.pos)
	if n := d.Norm(); n > 0 {
		c.heading = d.Scale(1 / n)
	}
	c.pos = p
}

// AdvanceSlots moves the client's broadcast clock forward.
func (c *Client) AdvanceSlots(n int64) {
	if n > 0 {
		c.nowSlot += n
	}
}

// NowSlot returns the client's position on the broadcast slot timeline.
func (c *Client) NowSlot() int64 { return c.nowSlot }

// CacheSize returns the number of POIs currently cached.
func (c *Client) CacheSize() int { return c.cache.Size() }

// Share returns the client's cached verified regions as PeerData — what
// it answers a peer's cache request with. The rows' POIs are copied into
// one array per call, so the result belongs to the caller: writing it
// cannot change what the client shares next.
func (c *Client) Share() []PeerData {
	regions := c.cache.Regions()
	out := make([]PeerData, 0, len(regions))
	pois := make([]POI, 0, c.cache.Size())
	for _, r := range regions {
		start := len(pois)
		pois = append(pois, r.POIs...)
		out = append(out, PeerData{VR: r.Rect, POIs: pois[start:len(pois):len(pois)]})
	}
	return out
}

// KNN runs the sharing-based k-nearest-neighbor query (Algorithm 2) from
// the client's position using the peers' shared data, falling back to the
// broadcast channel when verification cannot fulfil it. The client's
// clock advances by the access latency and its cache absorbs the verified
// knowledge gained. Each query runs on a scratch of its own and the cache
// copies what it absorbs, so the result belongs to the caller.
func (c *Client) KNN(k int, peers []PeerData) SBNNResult {
	cfg := SBNNConfig{
		K:                 k,
		Lambda:            c.server.lambda,
		AcceptApproximate: c.AcceptApproximate,
		MinCorrectness:    c.MinCorrectness,
	}
	res := core.SBNNScratch(new(core.Scratch), c.pos, c.withOwnCache(peers), cfg, c.server.sched, c.nowSlot)
	c.absorb(res.KnownRegion, res.Known)
	c.nowSlot += res.Access.Latency
	return res
}

// Window runs the sharing-based window query (Algorithm 3) for window w.
// Like KNN's, its result belongs to the caller.
func (c *Client) Window(w Rect, peers []PeerData) SBWQResult {
	res := core.SBWQScratch(new(core.Scratch), c.pos, w, c.withOwnCache(peers), core.SBWQConfig{}, c.server.sched, c.nowSlot)
	c.absorb(w, res.POIs)
	c.nowSlot += res.Access.Latency
	return res
}

// withOwnCache prepends the client's own verified regions to the peer
// data unless disabled.
func (c *Client) withOwnCache(peers []PeerData) []PeerData {
	if c.DisableOwnCache || c.cache.Size() == 0 {
		return peers
	}
	return append(c.Share(), peers...)
}

// absorb stores gained verified knowledge in the client cache.
func (c *Client) absorb(region Rect, pois []POI) {
	if region.Empty() {
		return
	}
	c.cache.Insert(cache.Region{Rect: region, POIs: pois},
		c.pos, c.heading, c.nowSlot)
}
