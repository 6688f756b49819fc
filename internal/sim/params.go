// Package sim implements the system model of Section 4.1: a mobile-host
// module (random waypoint movement, Poisson query launching, per-host
// result caches), a base-station module operating the Hilbert-indexed
// (1, m) broadcast channel, and the P2P sharing layer, wired to the SBNN
// and SBWQ algorithms of the core package. It ships the three parameter
// sets of Table 3 (Los Angeles City, Synthetic Suburbia, Riverside
// County) and collects the statistics the paper's figures report.
package sim

import (
	"fmt"
	"math"
	"strings"

	"lbsq/internal/cache"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/knob"
)

// MetersPerMile converts the paper's transmission ranges (meters) into
// the simulator's world units (miles).
const MetersPerMile = 1609.344

// QueryKind selects which spatial query type a simulation run exercises;
// the paper evaluates the two kinds in separate experiments.
type QueryKind int

const (
	// KNNQuery runs sharing-based k-nearest-neighbor queries (SBNN).
	KNNQuery QueryKind = iota
	// WindowQuery runs sharing-based window queries (SBWQ).
	WindowQuery
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	if k == WindowQuery {
		return "window"
	}
	return "knn"
}

// Set implements flag.Value: it parses the -kind spelling, in any case.
func (k *QueryKind) Set(s string) error {
	switch strings.ToLower(s) {
	case "knn":
		*k = KNNQuery
	case "window":
		*k = WindowQuery
	default:
		return fmt.Errorf("unknown query kind %q (want knn or window)", s)
	}
	return nil
}

// Params mirrors Table 4 (simulation parameters) plus the simulator knobs
// the paper describes in prose. Distances are miles unless noted. A field
// tagged `flag` is an lbsq-sim flag of that name with that `usage` line, and
// Validate checks it against its optional `max` (internal/knob).
type Params struct {
	// Name labels the parameter set in reports.
	Name string

	// POINumber is the number of points of interest in the system.
	POINumber int
	// MHNumber is the number of mobile hosts in the simulation area.
	MHNumber int
	// CacheSize is the cache capacity of each mobile host (CSize, in
	// POIs).
	CacheSize int `flag:"cache" usage:"cache capacity in POIs (0 = preset value)"`
	// QueryRate is the mean number of queries launched per minute across
	// the whole system (the Query parameter).
	QueryRate float64
	// TxRangeMeters is the wireless transmission range in meters.
	TxRangeMeters float64 `flag:"tx" usage:"transmission range in meters (0 = preset value)"`
	// K is the mean number of queried nearest neighbors (kNN parameter).
	K int `flag:"k" usage:"mean number of nearest neighbors (0 = preset value)"`
	// WindowPct is the mean query-window size as a percentage. The paper
	// writes "1% to 5% of the whole search space"; this reproduction
	// interprets the percentage against the side length of the search
	// space (a 3% window on a 20-mile area is 0.6 mi × 0.6 mi), the only
	// reading under which the reported cache capacities (6–30 POIs) can
	// hold a window's contents. See DESIGN.md.
	WindowPct float64 `flag:"window" usage:"mean window size in percent (0 = preset value)"`
	// WindowDistMiles is the mean distance between a querying MH and the
	// center of its query window (normally distributed).
	WindowDistMiles float64
	// DurationHours is the simulated run length (Texecution).
	DurationHours float64 `flag:"hours" usage:"simulated hours"`

	// AreaMiles is the side of the square service area (20 in the paper).
	AreaMiles float64 `flag:"side" usage:"service area side in miles"`
	// WindowRefMiles is the reference side length the window percentage
	// is measured against. It stays at the original 20-mile area when a
	// parameter set is Scaled down, so a "3% window" keeps its physical
	// size and the coverage dynamics of the full-scale system. Zero means
	// AreaMiles.
	WindowRefMiles float64

	// PrefillQueriesPerHost is the mean number of historical query
	// results pre-loaded into each host's cache at t=0 — a steady-state
	// warm start standing in for the hours of query history the paper's
	// 10-hour runs accumulate before measurement. The pre-filled regions
	// are built from the ground-truth database, so they satisfy the same
	// soundness invariant live caching maintains. Zero disables.
	PrefillQueriesPerHost float64 `flag:"prefill" usage:"mean historical queries pre-filling each host cache (0 disables)"`
	// PrefillRadiusMiles spreads the historical query locations around
	// each host's starting position (how far its knowledge lags behind).
	// Defaults to min(7.5, AreaMiles/2) — the mean travel between
	// queries under the Table 3 rates and speeds.
	PrefillRadiusMiles float64

	// Kind selects kNN or window queries for the run.
	Kind QueryKind `flag:"kind" usage:"query kind: knn or window (default knn)"`

	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// TimeStepSec is the movement/query time step in seconds.
	TimeStepSec float64 `flag:"step" usage:"time step in seconds"`
	// WarmupFrac is the leading fraction of the run whose queries warm
	// the caches but are excluded from statistics ("all simulation
	// results were recorded after the system model reached steady
	// state").
	WarmupFrac float64
	// MinSpeedMph/MaxSpeedMph bound the random waypoint vehicle speeds.
	MinSpeedMph float64 `flag:"min-speed" usage:"minimum vehicle speed in mph (0 = preset value)"`
	MaxSpeedMph float64 `flag:"max-speed" usage:"maximum vehicle speed in mph (0 = preset value)"`
	// PauseSec is the maximum random waypoint pause.
	PauseSec float64
	// SlotSec is the broadcast slot duration in seconds (one data packet
	// per slot), used to convert slot latencies into wall time.
	SlotSec float64

	// POIClusters, when positive, draws the POI field from a Gaussian
	// mixture with this many centers instead of the uniform (Poisson)
	// field the paper assumes — a robustness knob for the Lemma 3.2
	// correctness model, whose lambda stays the global average density.
	POIClusters int `flag:"clusters" usage:"POI Gaussian-mixture cluster count (0 = uniform field)"`

	// UseOwnCache lets the querying host consult its own cached verified
	// regions in addition to its peers'. Off by default so the reported
	// shares isolate the paper's peer-sharing mechanism.
	UseOwnCache bool `flag:"owncache" usage:"let hosts consult their own caches (off isolates peer sharing)"`

	// SharingHops is how many ad-hoc hops a cache request travels. The
	// paper uses single-hop sharing (1, the default when zero); larger
	// values relay requests through intermediate peers — the natural
	// multi-hop extension of its cooperative-caching citations.
	SharingHops int `flag:"hops" usage:"ad-hoc sharing hops (1 = the paper's single-hop)"`

	// CachePolicy selects the replacement policy (the paper uses the
	// moving-direction + data-distance policy).
	CachePolicy cache.Policy `flag:"policy" usage:"cache policy: direction or lru (default direction)"`
	// AcceptApproximate lets clients accept approximate SBNN answers.
	AcceptApproximate bool `flag:"approx" usage:"accept approximate SBNN answers (correctness > 50%)"`
	// MinCorrectness is the approximate acceptance threshold (the
	// paper's experiments count answers with correctness above 50%).
	MinCorrectness float64

	// Faults configures the fault-injection layer: P2P request/reply
	// loss, reply truncation and bit corruption, broadcast packet loss,
	// peer-cache staleness, and peer churn (see the faults package). The
	// zero value is the ideal substrate the paper assumes — no faults are
	// drawn and behavior is identical to a build without the layer.
	Faults faults.Profile `layer:"faults: losses, churn, byzantine hosts, bursts and blackouts (DESIGN.md §7, §8, §11, §13)"`

	// LayerKnobs are the shell layers' knobs, one struct per layer. Every
	// one is inert at its zero value: output is bit-identical to a build
	// without the layer.
	LayerKnobs

	// Metrics enables the observability layer (DESIGN.md §10): a
	// per-world metrics registry with outcome counters, latency/tuning/
	// area histograms, and the five per-query phase spans (p2p_collect,
	// mvr_merge, nnv_verify, onair_tune, onair_download), exposed
	// through Report.Metrics, the trace span fields, and the CLI
	// Prometheus-style sinks. Pure observation: it draws no randomness
	// and alters no behavior, and with the knob off (the default) every
	// output is bit-identical to a build without the layer — the same
	// zero-knob identity contract as Faults and the resilience knobs.
	Metrics bool
}

// LayerKnobs gathers the knob structs declared beside each shell layer.
// It is embedded in both Params and Report, so a knob is declared once: a
// field's tags are its report key, its lbsq-sim flag, its inclusive upper
// bound and its help line (internal/knob), and the `layer` tags here title
// `lbsq-sim -h`. Report rows carry the keys in this order.
type LayerKnobs struct {
	LifecycleKnobs   `layer:"collection lifecycle (DESIGN.md §8)"`
	TrustKnobs       `layer:"trust: audits against byzantine peers (DESIGN.md §11)"`
	ConsistencyKnobs `layer:"consistency: POI updates and invalidation reports (DESIGN.md §12)"`
	ChannelKnobs     `layer:"degraded-mode planner (DESIGN.md §13)"`
	ContinuousKnobs  `layer:"continuous queries (DESIGN.md §15)"`
	CrowdKnobs       `layer:"flash crowd (DESIGN.md §16)"`
	OverloadKnobs    `layer:"overload control (DESIGN.md §16)"`
}

// LifecycleKnobs bound one query's peer collection (DESIGN.md §8).
type LifecycleKnobs struct {
	// DeadlineSlots is the per-query slot budget of peer collection: when
	// a query's retry backoff would spend more broadcast slots than this,
	// collection abandons its remaining targets and the query falls back
	// to the channel with the spent slots priced into its access latency.
	// Zero disables the deadline.
	DeadlineSlots int `json:"deadline_slots" flag:"deadline-slots" usage:"per-query P2P slot budget; exceeding it falls back to the channel (0 = no deadline)"`
	// BreakerThreshold is the consecutive-failure count (CRC rejections,
	// stale discards, reply timeouts) that trips a peer's circuit breaker
	// open. Zero disables per-peer breakers.
	BreakerThreshold int `json:"breaker_threshold" flag:"breaker-threshold" usage:"consecutive peer failures that trip its circuit breaker (0 = breakers off)"`
	// BreakerCooldown is the quarantine length of a tripped breaker in
	// collection cycles (one query's P2P phase = one cycle). Zero selects
	// p2p.DefaultBreakerCooldown when BreakerThreshold is set.
	BreakerCooldown int64 `json:"breaker_cooldown" flag:"breaker-cooldown" usage:"breaker quarantine in collection cycles (0 = default 8 when breakers on)"`
}

// TrustKnobs arm the Byzantine-resilience layer (DESIGN.md §11).
type TrustKnobs struct {
	// AuditRate enables the Byzantine-resilience layer (internal/trust):
	// the probability that one peer contribution is spot-audited against
	// the broadcast channel during one query's screen. Zero (the default)
	// disables the whole defense — no trust engine exists, peer
	// contributions flow to the core algorithms unscreened, and every
	// output is bit-identical to a build without the layer. Nonzero arms
	// audit-gated vouching: contributions from unvouched peers are
	// tainted (demoted to the Lemma 3.2 probabilistic path), overlapping
	// verified regions are cross-validated, and convictions quarantine
	// the peer and force its circuit breaker open. Audit slot costs are
	// priced into the audited query's access latency and charged against
	// its DeadlineSlots budget. Byzantine peers themselves are configured
	// through Faults.ByzantineRate and Faults.Attack.
	AuditRate float64 `json:"audit_rate,omitempty" flag:"audit-rate" max:"1" usage:"probability one peer contribution is spot-audited against the channel [0, 1]; 0 disables the trust layer"`
}

// applyDefaults fills unset simulator knobs with the paper-faithful
// defaults.
func (p *Params) applyDefaults() {
	if p.AreaMiles == 0 {
		p.AreaMiles = 20
	}
	if p.TimeStepSec == 0 {
		p.TimeStepSec = 5
	}
	if p.WarmupFrac == 0 {
		p.WarmupFrac = 0.3
	}
	if p.MinSpeedMph == 0 {
		p.MinSpeedMph = 10
	}
	if p.MaxSpeedMph == 0 {
		p.MaxSpeedMph = 50
	}
	if p.SlotSec == 0 {
		p.SlotSec = 0.05
	}
	if p.MinCorrectness == 0 {
		p.MinCorrectness = 0.5
	}
	// Consistency defaults only materialize when the layer is armed, so a
	// zero-knob Params round-trips through reports byte-identically.
	if p.UpdateRate > 0 {
		if p.IRPeriodSec == 0 {
			p.IRPeriodSec = 30
		}
		if p.IRWindow == 0 {
			p.IRWindow = 8
		}
	}
	// Crowd/overload defaults likewise materialize only when armed.
	if p.CrowdRate > 0 {
		if p.CrowdRadiusMiles == 0 {
			p.CrowdRadiusMiles = p.AreaMiles / 10
		}
		if p.CrowdDurationSec == 0 {
			p.CrowdDurationSec = p.DurationHours * 3600 * 0.1
		}
		if p.CrowdStartSec == 0 {
			p.CrowdStartSec = p.DurationHours * 3600 * 0.5
		}
	}
	if p.AdmissionRate > 0 && p.AdmissionBurst == 0 {
		p.AdmissionBurst = 4
	}
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	switch {
	case p.POINumber < 0:
		return fmt.Errorf("sim: negative POINumber %d", p.POINumber)
	case p.MHNumber <= 0:
		return fmt.Errorf("sim: MHNumber %d must be positive", p.MHNumber)
	case p.QueryRate <= 0:
		return fmt.Errorf("sim: QueryRate %v must be positive", p.QueryRate)
	case p.DurationHours <= 0:
		return fmt.Errorf("sim: DurationHours %v must be positive", p.DurationHours)
	case p.AreaMiles <= 0:
		return fmt.Errorf("sim: AreaMiles %v must be positive", p.AreaMiles)
	case p.K <= 0 && p.Kind == KNNQuery:
		return fmt.Errorf("sim: K %d must be positive for kNN runs", p.K)
	case p.WindowPct <= 0 && p.Kind == WindowQuery:
		return fmt.Errorf("sim: WindowPct %v must be positive for window runs", p.WindowPct)
	case p.WarmupFrac < 0 || p.WarmupFrac >= 1:
		return fmt.Errorf("sim: WarmupFrac %v out of [0,1)", p.WarmupFrac)
	}
	// Every flag-tagged knob — here, in the layer structs and in Faults —
	// is range-checked from its declaration: finite, non-negative, at most
	// its `max`.
	if err := knob.Check(p); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := p.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// CrowdEnabled reports whether the flash-crowd workload generator is
// armed.
func (p *Params) CrowdEnabled() bool { return p.CrowdRate > 0 }

// OverloadEnabled reports whether any demand-side overload-control knob
// (peer backpressure, retry budget, admission buckets, the load
// governor, or query coalescing) is armed.
func (p *Params) OverloadEnabled() bool {
	return p.PeerQueueCap > 0 || p.RetryBudget > 0 || p.AdmissionRate > 0 ||
		p.GovernorFloor > 0 || p.CoalesceRadiusMiles > 0
}

// ContinuousEnabled reports whether the continuous-query layer (standing
// subscriptions with safe-region maintenance) is armed.
func (p *Params) ContinuousEnabled() bool { return p.ContinuousRate > 0 }

// ConsistencyEnabled reports whether the POI-update process (and with it
// the IR broadcast and cache reconciliation) is armed.
func (p *Params) ConsistencyEnabled() bool { return p.UpdateRate > 0 }

// Area returns the square service area in miles.
func (p *Params) Area() geom.Rect {
	return geom.NewRect(0, 0, p.AreaMiles, p.AreaMiles)
}

// TxRangeMiles converts the transmission range to miles.
func (p *Params) TxRangeMiles() float64 { return p.TxRangeMeters / MetersPerMile }

// POIDensity returns POIs per square mile — the lambda of Lemma 3.2.
func (p *Params) POIDensity() float64 {
	return float64(p.POINumber) / (p.AreaMiles * p.AreaMiles)
}

// MHDensity returns mobile hosts per square mile.
func (p *Params) MHDensity() float64 {
	return float64(p.MHNumber) / (p.AreaMiles * p.AreaMiles)
}

// WindowSideMiles converts the window percentage to a window side length
// against the reference area (see WindowRefMiles).
func (p *Params) WindowSideMiles() float64 {
	ref := p.WindowRefMiles
	if ref <= 0 {
		ref = p.AreaMiles
	}
	return ref * p.WindowPct / 100
}

// table3 is one Table 3 parameter set: the name and the densities that
// tell the three apart, beside the settings all three share.
func table3(name string, pois, hosts int, queryRate float64) Params {
	return Params{
		Name:            name,
		POINumber:       pois,
		MHNumber:        hosts,
		CacheSize:       50,
		QueryRate:       queryRate,
		TxRangeMeters:   200,
		K:               5,
		WindowPct:       3,
		WindowDistMiles: 1,
		DurationHours:   10,
		AreaMiles:       20,
	}
}

// LACity returns the Los Angeles City parameter set of Table 3: a very
// dense urban area.
func LACity() Params { return table3("Los Angeles City", 2750, 93300, 6220) }

// SyntheticSuburbia returns the blended suburban parameter set of Table 3.
func SyntheticSuburbia() Params { return table3("Synthetic Suburbia", 2100, 51500, 3440) }

// RiversideCounty returns the low-density rural parameter set of Table 3.
func RiversideCounty() Params { return table3("Riverside County", 1450, 9700, 650) }

// ParameterSets returns the three Table 3 presets in the order the paper
// plots them.
func ParameterSets() []Params {
	return []Params{LACity(), SyntheticSuburbia(), RiversideCounty()}
}

// Scaled returns a density-preserving rescale of the parameter set to a
// square of the given side length: MH count, POI count, and system query
// rate shrink with the area so that every density the experiments depend
// on (vehicles, POIs, queries per square mile) is unchanged. The paper's
// results are functions of these densities, so a scaled run reproduces
// the same curves in a fraction of the time.
func (p Params) Scaled(sideMiles float64) Params {
	ratio := (sideMiles * sideMiles) / (p.AreaMiles * p.AreaMiles)
	out := p
	out.AreaMiles = sideMiles
	if out.WindowRefMiles <= 0 {
		out.WindowRefMiles = p.AreaMiles // windows keep their physical size
	}
	out.MHNumber = max(1, int(math.Round(float64(p.MHNumber)*ratio)))
	out.POINumber = max(1, int(math.Round(float64(p.POINumber)*ratio)))
	out.QueryRate = p.QueryRate * ratio
	if out.QueryRate <= 0 {
		out.QueryRate = 1
	}
	return out
}

// WithDuration returns a copy running for the given number of hours.
func (p Params) WithDuration(hours float64) Params {
	out := p
	out.DurationHours = hours
	return out
}
