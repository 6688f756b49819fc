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

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/p2p"
	"lbsq/internal/trust"
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

// Params mirrors Table 4 (simulation parameters) plus the simulator knobs
// the paper describes in prose. Distances are miles unless noted.
type Params struct {
	// Name labels the parameter set in reports.
	Name string

	// POINumber is the number of points of interest in the system.
	POINumber int
	// MHNumber is the number of mobile hosts in the simulation area.
	MHNumber int
	// CacheSize is the cache capacity per data type of each mobile host
	// (CSize, in POIs).
	CacheSize int
	// QueryRate is the mean number of queries launched per minute across
	// the whole system (the Query parameter).
	QueryRate float64
	// TxRangeMeters is the wireless transmission range in meters.
	TxRangeMeters float64
	// K is the mean number of queried nearest neighbors (kNN parameter).
	K int
	// WindowPct is the mean query-window size as a percentage. The paper
	// writes "1% to 5% of the whole search space"; this reproduction
	// interprets the percentage against the side length of the search
	// space (a 3% window on a 20-mile area is 0.6 mi × 0.6 mi), the only
	// reading under which the reported cache capacities (6–30 POIs) can
	// hold a window's contents. See DESIGN.md.
	WindowPct float64
	// WindowDistMiles is the mean distance between a querying MH and the
	// center of its query window (normally distributed).
	WindowDistMiles float64
	// DurationHours is the simulated run length (Texecution).
	DurationHours float64

	// AreaMiles is the side of the square service area (20 in the paper).
	AreaMiles float64
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
	PrefillQueriesPerHost float64
	// PrefillRadiusMiles spreads the historical query locations around
	// each host's starting position (how far its knowledge lags behind).
	// Defaults to min(7.5, AreaMiles/2) — the mean travel between
	// queries under the Table 3 rates and speeds.
	PrefillRadiusMiles float64

	// Kind selects kNN or window queries for the run.
	Kind QueryKind

	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// TimeStepSec is the movement/query time step in seconds.
	TimeStepSec float64
	// WarmupFrac is the leading fraction of the run whose queries warm
	// the caches but are excluded from statistics ("all simulation
	// results were recorded after the system model reached steady
	// state").
	WarmupFrac float64
	// MinSpeedMph/MaxSpeedMph bound the random waypoint vehicle speeds.
	MinSpeedMph float64
	MaxSpeedMph float64
	// PauseSec is the maximum random waypoint pause.
	PauseSec float64
	// SlotSec is the broadcast slot duration in seconds (one data packet
	// per slot), used to convert slot latencies into wall time.
	SlotSec float64

	// POITypes is the number of independent POI data types (gas
	// stations, hotels, restaurants, ...). Each type gets its own POI
	// field, broadcast channel, and per-host cache of CacheSize POIs —
	// Table 4's "cache capacity per data type". Defaults to 1, the
	// paper's experimental setting (gas stations only).
	POITypes int

	// POIClusters, when positive, draws the POI field from a Gaussian
	// mixture with this many centers instead of the uniform (Poisson)
	// field the paper assumes — a robustness knob for the Lemma 3.2
	// correctness model, whose lambda stays the global average density.
	POIClusters int

	// UseOwnCache lets the querying host consult its own cached verified
	// regions in addition to its peers'. Off by default so the reported
	// shares isolate the paper's peer-sharing mechanism.
	UseOwnCache bool

	// SharingHops is how many ad-hoc hops a cache request travels. The
	// paper uses single-hop sharing (1, the default when zero); larger
	// values relay requests through intermediate peers — the natural
	// multi-hop extension of its cooperative-caching citations.
	SharingHops int

	// CachePolicy selects the replacement policy (the paper uses the
	// moving-direction + data-distance policy).
	CachePolicy cache.Policy
	// AcceptApproximate lets clients accept approximate SBNN answers.
	AcceptApproximate bool
	// MinCorrectness is the approximate acceptance threshold (the
	// paper's experiments count answers with correctness above 50%).
	MinCorrectness float64

	// Faults configures the fault-injection layer: P2P request/reply
	// loss, reply truncation and bit corruption, broadcast packet loss,
	// peer-cache staleness, and peer churn (see the faults package). The
	// zero value is the ideal substrate the paper assumes — no faults are
	// drawn and behavior is identical to a build without the layer.
	Faults faults.Profile

	// DeadlineSlots is the per-query slot budget of peer collection: when
	// a query's retry backoff would spend more broadcast slots than this,
	// collection abandons its remaining targets and the query falls back
	// to the channel with the spent slots priced into its access latency.
	// Zero disables the deadline.
	DeadlineSlots int
	// BreakerThreshold is the consecutive-failure count (CRC rejections,
	// stale discards, reply timeouts) that trips a peer's circuit breaker
	// open. Zero disables per-peer breakers.
	BreakerThreshold int
	// BreakerCooldown is the quarantine length of a tripped breaker in
	// collection cycles (one query's P2P phase = one cycle). Zero selects
	// p2p.DefaultBreakerCooldown when BreakerThreshold is set.
	BreakerCooldown int64

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
	AuditRate float64

	// DegradedMode arms the degraded-mode query planner (DESIGN.md §13):
	// each query classifies its connectivity (broadcast downlink up/down ×
	// P2P channel up/down) and walks the fallback ladder — full protocol →
	// P2P-only with Lemma 3.2 probabilistic answers → on-air-only →
	// serve-from-own-cache with an explicit staleness bound. Off (the
	// default), queries run the full protocol unconditionally: a dark
	// downlink stalls them until the blackout window ends, and a deep fade
	// burns the whole retry budget against unreachable peers. The planner
	// only changes behavior when the burst or blackout knobs
	// (Faults.Burst*/Blackout*) create impairments to classify; with those
	// zero every query classifies as fully connected and output is
	// bit-identical to a build without the planner.
	DegradedMode bool

	// Broadcast configures the air index; the Area field is filled in by
	// the simulator. Faults.BroadcastLoss, when set, overrides
	// Broadcast.LossRate so one profile drives every channel.
	Broadcast broadcast.Config

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

	// UpdateRate arms the consistency layer (DESIGN.md §12): the mean
	// number of POI mutations (insert/delete/move) per minute, per data
	// type. Zero (the default) keeps the paper's immutable POI set — no
	// update process exists, no IR frames ride the index slots, and every
	// output is bit-identical to a build without the layer. Nonzero
	// versions the POI database with a monotone epoch counter, broadcasts
	// invalidation reports every IRPeriodSec, and makes every client
	// reconcile its cached verified regions (surgical shrink with
	// geom.SubtractRect) before querying.
	UpdateRate float64
	// IRPeriodSec is the invalidation-report broadcast period in
	// simulated seconds; mutations accumulate into one epoch per period.
	// Defaults to 30 when UpdateRate is set.
	IRPeriodSec float64
	// IRWindow is how many past epochs of mutation items one IR frame
	// retains (the paper's broadcast-window w of Tabassum et al.): a
	// client whose cached region slept past IRWindow epochs cannot repair
	// it and must demote it to the probabilistic path. Defaults to 8 when
	// UpdateRate is set.
	IRWindow int
	// VRTTLSec is an optional time-to-live for cached verified regions:
	// regions older than this are evicted at the owner's next IR sync (a
	// defense-in-depth bound on how long any cache entry can matter).
	// Zero disables TTL expiry.
	VRTTLSec float64
	// IRDiscard switches reconciliation to the whole-region-discard
	// ablation: any superseded region is dropped instead of surgically
	// shrunk. The EXPERIMENTS.md freshness curve quantifies what the
	// surgical repair buys over this baseline.
	IRDiscard bool

	// ContinuousRate arms the continuous-query layer (DESIGN.md §15): the
	// mean number of standing-subscription registrations per minute across
	// the whole system. Zero (the default) keeps every query a one-shot
	// snapshot — no subscription registry exists, no maintenance phase
	// runs, and every output is bit-identical to a build without the
	// layer. Nonzero registers moving hosts with standing kNN or window
	// queries (the run's Kind) whose answers are maintained incrementally:
	// each exact answer carries a safe-exit radius computed from the MVR
	// clearance and the known result-flip boundaries (internal/core
	// SafeExitKNN/SafeExitWindow), and the subscription re-runs the full
	// query path only when its host crosses that radius, an invalidation
	// epoch or VR TTL taints the answer, or the previous answer was not
	// exact (the Lemma 3.2 probabilistic demotion). Registration draws
	// come from a dedicated seeded stream, so arming the layer never
	// perturbs the legacy query draws.
	ContinuousRate float64
	// ContinuousNaive forces every standing subscription to re-verify on
	// every tick instead of consulting its safe region — the baseline the
	// EXPERIMENTS.md continuous curve compares against. No effect without
	// ContinuousRate.
	ContinuousNaive bool

	// CrowdRate arms the flash-crowd workload generator (DESIGN.md §16):
	// the mean number of extra queries per minute, system-wide, that the
	// hotspot injects at the peak of its temporal burst. Zero (the
	// default) generates no crowd — no crowd stream exists and every
	// output is bit-identical to a build without the layer. Nonzero
	// launches additional queries from hosts inside the hotspot disk
	// during the burst window, Poisson-modulated by a smooth ramp
	// (sin², peaking mid-window), from a dedicated seeded stream so the
	// legacy query draws are never perturbed.
	CrowdRate float64
	// CrowdRadiusMiles is the hotspot disk radius. Defaults to
	// AreaMiles/10 when the crowd is armed.
	CrowdRadiusMiles float64
	// CrowdCenterXMiles / CrowdCenterYMiles place the hotspot center.
	// Zero selects the area center when the crowd is armed.
	CrowdCenterXMiles float64
	CrowdCenterYMiles float64
	// CrowdStartSec is when the burst window opens (simulated seconds);
	// zero selects mid-run when the crowd is armed. CrowdDurationSec is
	// the window length; zero selects 10% of the run.
	CrowdStartSec    float64
	CrowdDurationSec float64

	// PeerQueueCap arms peer-side backpressure (DESIGN.md §16): each
	// peer serves at most this many cache requests per tick; the next
	// band is refused with an explicit BUSY frame on the wire, and
	// saturation beyond that is shed silently (p2p.ServiceQueue). BUSY
	// replies and queue drops are never breaker strikes — a busy peer is
	// not a broken peer. Zero (the default) leaves service unbounded.
	PeerQueueCap int
	// RetryBudget caps retry amplification: the total number of request
	// re-broadcasts (across every query) one tick may spend. A query
	// whose backoff schedule would exceed the exhausted budget stops
	// retrying and proceeds with the replies it has. Zero (the default)
	// leaves retries unbudgeted.
	RetryBudget int
	// AdmissionRate arms per-MH admission token buckets: each host
	// accrues this many query tokens per simulated second (deterministic
	// refill, no randomness) up to AdmissionBurst. A one-shot query
	// issued from an empty bucket is shed to the broadcast-only path
	// (Lemma 3.2 / on-air fallback — degraded, never wrong) instead of
	// gathering peers. Continuous-subscription maintenance is exempt:
	// safe-region hits are nearly free. Zero (the default) admits
	// everything.
	AdmissionRate float64
	// AdmissionBurst is the token-bucket depth; defaults to 4 when
	// AdmissionRate is set.
	AdmissionBurst int
	// Governed arms the load governor: a windowed answered-in-budget
	// ratio (DeadlineSlots plus one broadcast cycle, the PR-7
	// availability metric) is tracked per tick, and when it falls below
	// GovernorFloor the governor sheds one-shot queries to the
	// broadcast-only path until the ratio recovers. Priority-aware:
	// continuous subscriptions keep their service. Off (the default) the
	// governor never exists.
	Governed bool
	// GovernorFloor is the answered-in-budget ratio (0..1) below which
	// the governor engages; defaults to 0.9 when Governed is set.
	GovernorFloor float64
	// CoalesceRadiusMiles arms cross-MH query coalescing: a query whose
	// origin lies within this distance of an earlier same-tick, same-type
	// query reuses that query's screened peer gather instead of
	// broadcasting its own request — one gather serves the co-located
	// crowd. Soundness is unchanged: the recipient still verifies against
	// the shared regions and falls back to the channel when coverage is
	// insufficient. Zero (the default) disables coalescing.
	CoalesceRadiusMiles float64

	// TickWorkers sets when the query pipeline's pure execute stage runs
	// (DESIGN.md §14.2). 0 or 1 (the default): each query executes and
	// commits as it is drawn. More: a tick's prepared queries are held
	// and executed together across this many workers against the tick's
	// frozen world state, then committed serially in query order. Every
	// report, trace, and metrics output is byte-identical at every
	// setting. The knob is a host-machine execution detail, never part
	// of the simulated configuration, so it is excluded from Report rows.
	TickWorkers int `json:"-"`
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
	if p.Broadcast.Order == 0 {
		p.Broadcast.Order = 6
	}
	if p.Broadcast.PacketCapacity == 0 {
		p.Broadcast.PacketCapacity = 8
	}
	if p.Broadcast.M == 0 {
		p.Broadcast.M = 4
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
		if p.CrowdCenterXMiles == 0 {
			p.CrowdCenterXMiles = p.AreaMiles / 2
		}
		if p.CrowdCenterYMiles == 0 {
			p.CrowdCenterYMiles = p.AreaMiles / 2
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
	if p.Governed && p.GovernorFloor == 0 {
		p.GovernorFloor = 0.9
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
	case p.TxRangeMeters < 0:
		return fmt.Errorf("sim: negative TxRangeMeters %v", p.TxRangeMeters)
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
	if err := p.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if p.DeadlineSlots < 0 {
		return fmt.Errorf("sim: negative DeadlineSlots %d", p.DeadlineSlots)
	}
	if err := p.BreakerConfig().Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := p.TrustConfig().Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch {
	case p.UpdateRate != p.UpdateRate || p.UpdateRate < 0:
		return fmt.Errorf("sim: UpdateRate %v must be a non-negative number", p.UpdateRate)
	case p.IRPeriodSec != p.IRPeriodSec || p.IRPeriodSec < 0:
		return fmt.Errorf("sim: IRPeriodSec %v must be a non-negative number", p.IRPeriodSec)
	case p.IRWindow < 0:
		return fmt.Errorf("sim: negative IRWindow %d", p.IRWindow)
	case p.VRTTLSec != p.VRTTLSec || p.VRTTLSec < 0:
		return fmt.Errorf("sim: VRTTLSec %v must be a non-negative number", p.VRTTLSec)
	}
	if p.ContinuousRate != p.ContinuousRate || p.ContinuousRate < 0 {
		return fmt.Errorf("sim: ContinuousRate %v must be a non-negative number", p.ContinuousRate)
	}
	switch {
	case p.CrowdRate != p.CrowdRate || p.CrowdRate < 0:
		return fmt.Errorf("sim: CrowdRate %v must be a non-negative number", p.CrowdRate)
	case p.CrowdRadiusMiles != p.CrowdRadiusMiles || p.CrowdRadiusMiles < 0:
		return fmt.Errorf("sim: CrowdRadiusMiles %v must be a non-negative number", p.CrowdRadiusMiles)
	case p.CrowdCenterXMiles != p.CrowdCenterXMiles || p.CrowdCenterXMiles < 0:
		return fmt.Errorf("sim: CrowdCenterXMiles %v must be a non-negative number", p.CrowdCenterXMiles)
	case p.CrowdCenterYMiles != p.CrowdCenterYMiles || p.CrowdCenterYMiles < 0:
		return fmt.Errorf("sim: CrowdCenterYMiles %v must be a non-negative number", p.CrowdCenterYMiles)
	case p.CrowdStartSec != p.CrowdStartSec || p.CrowdStartSec < 0:
		return fmt.Errorf("sim: CrowdStartSec %v must be a non-negative number", p.CrowdStartSec)
	case p.CrowdDurationSec != p.CrowdDurationSec || p.CrowdDurationSec < 0:
		return fmt.Errorf("sim: CrowdDurationSec %v must be a non-negative number", p.CrowdDurationSec)
	case p.PeerQueueCap < 0:
		return fmt.Errorf("sim: negative PeerQueueCap %d", p.PeerQueueCap)
	case p.RetryBudget < 0:
		return fmt.Errorf("sim: negative RetryBudget %d", p.RetryBudget)
	case p.AdmissionRate != p.AdmissionRate || p.AdmissionRate < 0:
		return fmt.Errorf("sim: AdmissionRate %v must be a non-negative number", p.AdmissionRate)
	case p.AdmissionBurst < 0:
		return fmt.Errorf("sim: negative AdmissionBurst %d", p.AdmissionBurst)
	case p.GovernorFloor != p.GovernorFloor || p.GovernorFloor < 0 || p.GovernorFloor > 1:
		return fmt.Errorf("sim: GovernorFloor %v out of [0,1]", p.GovernorFloor)
	case p.CoalesceRadiusMiles != p.CoalesceRadiusMiles || p.CoalesceRadiusMiles < 0:
		return fmt.Errorf("sim: CoalesceRadiusMiles %v must be a non-negative number", p.CoalesceRadiusMiles)
	}
	if p.TickWorkers < 0 {
		return fmt.Errorf("sim: negative TickWorkers %d", p.TickWorkers)
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
		p.Governed || p.CoalesceRadiusMiles > 0
}

// ContinuousEnabled reports whether the continuous-query layer (standing
// subscriptions with safe-region maintenance) is armed.
func (p *Params) ContinuousEnabled() bool { return p.ContinuousRate > 0 }

// ConsistencyEnabled reports whether the POI-update process (and with it
// the IR broadcast and cache reconciliation) is armed.
func (p *Params) ConsistencyEnabled() bool { return p.UpdateRate > 0 }

// TrustConfig assembles the trust-engine configuration; its zero value
// (AuditRate 0) disables the defense entirely.
func (p *Params) TrustConfig() trust.Config {
	return trust.Config{AuditRate: p.AuditRate}
}

// TrustEnabled reports whether the Byzantine-resilience layer is armed.
func (p *Params) TrustEnabled() bool { return p.TrustConfig().Enabled() }

// BreakerConfig assembles the per-peer circuit-breaker configuration.
func (p *Params) BreakerConfig() p2p.BreakerConfig {
	return p2p.BreakerConfig{Threshold: p.BreakerThreshold, Cooldown: p.BreakerCooldown}
}

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

// LACity returns the Los Angeles City parameter set of Table 3: a very
// dense urban area.
func LACity() Params {
	return Params{
		Name:            "Los Angeles City",
		POINumber:       2750,
		MHNumber:        93300,
		CacheSize:       50,
		QueryRate:       6220,
		TxRangeMeters:   200,
		K:               5,
		WindowPct:       3,
		WindowDistMiles: 1,
		DurationHours:   10,
		AreaMiles:       20,
	}
}

// SyntheticSuburbia returns the blended suburban parameter set of Table 3.
func SyntheticSuburbia() Params {
	return Params{
		Name:            "Synthetic Suburbia",
		POINumber:       2100,
		MHNumber:        51500,
		CacheSize:       50,
		QueryRate:       3440,
		TxRangeMeters:   200,
		K:               5,
		WindowPct:       3,
		WindowDistMiles: 1,
		DurationHours:   10,
		AreaMiles:       20,
	}
}

// RiversideCounty returns the low-density rural parameter set of Table 3.
func RiversideCounty() Params {
	return Params{
		Name:            "Riverside County",
		POINumber:       1450,
		MHNumber:        9700,
		CacheSize:       50,
		QueryRate:       650,
		TxRangeMeters:   200,
		K:               5,
		WindowPct:       3,
		WindowDistMiles: 1,
		DurationHours:   10,
		AreaMiles:       20,
	}
}

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
	out.MHNumber = maxInt(1, int(math.Round(float64(p.MHNumber)*ratio)))
	out.POINumber = maxInt(1, int(math.Round(float64(p.POINumber)*ratio)))
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
