// Command lbsq-sim runs a single configuration of the full system model
// (Section 4.1) and prints the resulting statistics. It defaults to a
// density-preserving 5-mile scale of the chosen Table 3 parameter set;
// pass -side 20 for the paper's full 20-mile area (the Los Angeles set
// then simulates all 93,300 vehicles).
//
// Usage:
//
//	lbsq-sim [-set la|suburbia|riverside] [-kind knn|window]
//	         [-tx meters] [-cache n] [-k n] [-window pct]
//	         [-side miles] [-hours h] [-step sec] [-seed n]
//	         [-min-speed mph] [-max-speed mph]
//	         [-policy direction|lru] [-approx] [-baseline] [-selfcheck]
//	         [-hops n] [-clusters n] [-prefill n]
//	         [-loss p] [-req-loss p] [-reply-loss p] [-corrupt p]
//	         [-stale-rate p] [-retries n]
//	         [-deadline-slots n] [-breaker-threshold n]
//	         [-breaker-cooldown n] [-churn-rate p]
//	         [-byzantine-rate p] [-attack profile] [-audit-rate p]
//	         [-update-rate n] [-ir-period sec] [-ir-window n]
//	         [-vr-ttl sec] [-ir-discard]
//	         [-burst-good-loss p] [-burst-bad-loss p]
//	         [-burst-good-slots n] [-burst-bad-slots n]
//	         [-blackout-period sec] [-blackout-duration sec] [-degraded]
//	         [-continuous-rate n] [-continuous-naive]
//	         [-crowd-rate n] [-crowd-radius miles] [-crowd-x miles]
//	         [-crowd-y miles] [-crowd-start sec] [-crowd-duration sec]
//	         [-queue-cap n] [-retry-budget n] [-admission-rate n]
//	         [-admission-burst n] [-governed] [-governor-floor p]
//	         [-coalesce-radius miles]
//	         [-json] [-grid faults] [-parallel n]
//	         [-metrics] [-metrics-out file] [-metrics-listen addr]
//
// The metrics flags drive the observability layer (internal/metrics):
// -metrics enables the in-process registry (per-phase span histograms,
// outcome counters, latency/tuning/fan-out distributions) and embeds the
// final snapshot in -json output; -metrics-out additionally writes the
// snapshot as Prometheus text exposition; -metrics-listen serves live
// /metrics plus net/http/pprof profiles while the run progresses. All
// observed quantities are simulated (slots, work units), so metrics are
// deterministic under -seed, and a metrics-off run is bit-identical to a
// build without the layer.
//
// -grid faults replaces the single run with the standard in-process
// fault/resilience benchmark grid (the `make bench` cells): loss rates
// {0, 0.05, 0.1, 0.2} with and without the lifecycle knobs, each
// cell self-checked, one JSONL row per cell on stdout. -parallel sets
// the grid worker count (0 = GOMAXPROCS, 1 = serial); every worker
// count emits identical rows apart from wall_seconds, because each cell
// owns its seeded world (internal/sweep's determinism contract). -side
// and -hours scale the grid cells; all other flags are ignored in grid
// mode.
//
// The fault flags drive the fault-injection layer (internal/faults):
// -loss is broadcast packet/index loss, -req-loss and -reply-loss are the
// ad-hoc request and reply loss rates, -corrupt is the reply
// damage rate (split evenly between truncation and bit corruption),
// -stale-rate is the fraction of shared verified regions silently
// invalidated by the POI-update process, and -retries bounds the retry
// rounds of one query's peer collection. All fault runs are deterministic
// under -seed.
//
// The resilience flags drive the adaptive query lifecycle (DESIGN.md §8):
// -deadline-slots is the per-query P2P slot budget (exceeding it abandons
// peer collection and falls back to the channel), -breaker-threshold and
// -breaker-cooldown configure the per-peer circuit breakers (consecutive
// failures to trip; quarantine cycles), and -churn-rate lets peers power
// off/on and drift out of range mid-collection. Peer collection always
// retries only unanswered peers, under capped exponential backoff plus
// seeded jitter; with all three at zero that backoff is unbounded by a
// deadline, no peer is quarantined and none departs.
//
// The trust flags drive the Byzantine-resilience layer (DESIGN.md §11):
// -byzantine-rate makes that fraction of hosts lie about their cached
// regions with the -attack profile (fabricate, omit, inflate, shift, or
// the cycling mix), and -audit-rate arms the defense — cross-validation
// of overlapping regions, on-air spot audits priced into query latency,
// and reputation-driven quarantine wired into the circuit breakers.
// With -audit-rate 0 the lies go unscreened (the paper's honest-peer
// assumption fails open: -selfcheck then demonstrates verified-wrong
// answers); with it on, lies degrade answers to the probabilistic or
// broadcast path but never produce a verified-wrong result.
//
// The consistency flags drive the dynamic-POI layer (DESIGN.md §12):
// -update-rate sets POI mutations per minute (insert/delete/move; 0
// keeps the database static and every output bit-identical to earlier
// builds), -ir-period is the invalidation-report broadcast period in
// simulated seconds (default 30 when updates are on), -ir-window is how
// many past epochs each IR frame retains (default 8; hosts further
// behind demote their caches instead of repairing them), -vr-ttl expires
// cached verified regions after that many seconds (usable without
// -update-rate), and -ir-discard replaces surgical reconciliation with
// whole-region discard (the ablation EXPERIMENTS.md compares against).
// The legacy -stale-rate fault is re-expressed through this layer when
// updates are on: an injector-stale region is treated as superseded
// beyond the IR horizon (demoted, not silently wrong).
//
// The channel-impairment flags drive the correlated-failure model
// (DESIGN.md §13): -burst-bad-loss arms a seeded two-state
// Gilbert–Elliott chain whose bad state adds that much ad-hoc frame
// loss on top of the Bernoulli knobs (-burst-good-loss is the good
// state's residue; -burst-good-slots/-burst-bad-slots the geometric
// dwell means in broadcast slots), and -blackout-period/-blackout-
// duration schedule per-MH broadcast-downlink outages. -degraded
// replaces the naive wait-out-the-blackout stall with the fallback
// ladder (full → P2P-only → on-air-only → own-cache with an explicit
// staleness bound). All channel flags at zero is bit-identical to a
// build without the layer. Rate flags are validated at parse time:
// NaN, infinite, negative, or out-of-range values are rejected with
// the flag's name instead of being clamped silently.
//
// The continuous flags drive the standing-query layer (DESIGN.md §15):
// -continuous-rate registers that many continuous subscriptions per
// minute — moving hosts holding a standing kNN or window query,
// maintained every tick. Each exact answer carries a safe-exit radius
// derived from the verified-region boundary and the result-flip
// boundaries; while the host stays inside it the standing answer is
// provably current at zero channel cost, and only crossing it (or an
// invalidation/TTL taint) triggers a full re-verification.
// -continuous-naive disables the safe region and re-verifies every tick
// (the comparison baseline). -continuous-rate 0 is bit-identical to a
// build without the layer.
//
// The crowd/overload flags drive flash-crowd survival (DESIGN.md §16):
// -crowd-rate injects a hotspot query burst (that many extra queries per
// minute at the peak of a sin²-ramped window; -crowd-radius/-crowd-x/
// -crowd-y place the hotspot disk, -crowd-start/-crowd-duration the
// window — zeros pick the area center and mid-run). The demand-side
// controls bound the amplification a crowd can cause: -queue-cap limits
// each peer's per-tick service (the next band answers with an explicit
// BUSY frame, never a breaker strike), -retry-budget caps per-tick
// request re-broadcasts system-wide, -admission-rate/-admission-burst
// run per-MH token buckets that shed one-shot queries to the
// broadcast-only path, -governed/-governor-floor arm the load governor
// (sheds one-shots while the answered-in-budget ratio sits below the
// floor; continuous subscriptions keep priority), and -coalesce-radius
// lets co-located same-tick queries share one screened peer gather.
// All-zero crowd/overload flags are bit-identical to a build without
// the plane.
//
// -json suppresses the human-readable report and emits one machine-
// readable JSON object (configuration + full statistics) on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"lbsq/internal/cache"
	"lbsq/internal/experiments"
	"lbsq/internal/faults"
	"lbsq/internal/metrics"
	"lbsq/internal/sim"
	"lbsq/internal/sweep"
	"lbsq/internal/trace"
)

func main() {
	var (
		set       = flag.String("set", "la", "parameter set: la, suburbia, riverside")
		kind      = flag.String("kind", "knn", "query kind: knn or window")
		tx        = flag.Float64("tx", 0, "transmission range in meters (0 = preset value)")
		cacheSize = flag.Int("cache", 0, "cache capacity in POIs (0 = preset value)")
		k         = flag.Int("k", 0, "mean number of nearest neighbors (0 = preset value)")
		window    = flag.Float64("window", 0, "mean window size in percent (0 = preset value)")
		side      = flag.Float64("side", 5, "service area side in miles")
		hours     = flag.Float64("hours", 0.5, "simulated hours")
		step      = flag.Float64("step", 10, "time step in seconds")
		seed      = flag.Int64("seed", 42, "random seed")
		minSpeed  = flag.Float64("min-speed", 0, "minimum vehicle speed in mph (0 = preset value)")
		maxSpeed  = flag.Float64("max-speed", 0, "maximum vehicle speed in mph (0 = preset value)")
		policy    = flag.String("policy", "direction", "cache policy: direction or lru")
		approx    = flag.Bool("approx", true, "accept approximate SBNN answers (correctness > 50%)")
		baseline  = flag.Bool("baseline", false, "also price every query with the plain on-air algorithms")
		selfcheck = flag.Bool("selfcheck", false, "verify every exact result against the R-tree ground truth")
		hops      = flag.Int("hops", 1, "ad-hoc sharing hops (1 = the paper's single-hop)")
		clusters  = flag.Int("clusters", 0, "POI Gaussian-mixture cluster count (0 = uniform field)")
		types     = flag.Int("types", 1, "independent POI data types (cache capacity applies per type)")
		prefill   = flag.Float64("prefill", 10, "mean historical queries pre-filling each host cache (0 disables)")
		traceFile = flag.String("trace", "", "write one JSONL event per counted query to this file")
		owncache  = flag.Bool("owncache", false, "let hosts consult their own caches (off isolates peer sharing)")
		loss      = flag.Float64("loss", 0, "broadcast packet/index loss rate [0, 0.95]")
		reqLoss   = flag.Float64("req-loss", 0, "P2P request loss rate per peer [0, 0.95]")
		replyLoss = flag.Float64("reply-loss", 0, "P2P reply loss rate [0, 0.95]")
		corrupt   = flag.Float64("corrupt", 0, "P2P reply damage rate, half truncation half bit flips [0, 0.95]")
		staleRate = flag.Float64("stale-rate", 0, "fraction of shared verified regions silently invalidated [0, 0.95]")
		retries   = flag.Int("retries", 0, "retry rounds per peer collection (0 = default when faults are on)")
		deadline  = flag.Int("deadline-slots", 0, "per-query P2P slot budget; exceeding it falls back to the channel (0 = no deadline)")
		brThresh  = flag.Int("breaker-threshold", 0, "consecutive peer failures that trip its circuit breaker (0 = breakers off)")
		brCool    = flag.Int64("breaker-cooldown", 0, "breaker quarantine in collection cycles (0 = default 8 when breakers on)")
		churn     = flag.Float64("churn-rate", 0, "per-peer per-round probability of powering off/on mid-collection [0, 0.95]")
		byzRate   = flag.Float64("byzantine-rate", 0, "fraction of hosts that lie about their cached regions [0, 1]")
		attack    = flag.String("attack", "", "byzantine attack profile: fabricate, omit, inflate, shift, mix (default mix when -byzantine-rate > 0)")
		auditRate = flag.Float64("audit-rate", 0, "probability one peer contribution is spot-audited against the channel [0, 1]; 0 disables the trust layer")
		updRate   = flag.Float64("update-rate", 0, "POI mutations per minute (insert/delete/move); 0 keeps the database static")
		irPeriod  = flag.Float64("ir-period", 0, "invalidation-report broadcast period in seconds (0 = default 30 when -update-rate > 0)")
		irWindow  = flag.Int("ir-window", 0, "epochs each invalidation report retains (0 = default 8; older caches demote)")
		vrTTL     = flag.Float64("vr-ttl", 0, "cached verified-region time-to-live in seconds (0 = no expiry)")
		irDiscard = flag.Bool("ir-discard", false, "discard whole superseded regions instead of surgically reconciling them (ablation)")
		bGoodLoss = flag.Float64("burst-good-loss", 0, "extra ad-hoc frame loss in the Gilbert–Elliott good state [0, 1]")
		bBadLoss  = flag.Float64("burst-bad-loss", 0, "extra ad-hoc frame loss in the Gilbert–Elliott bad (fade) state [0, 1]; 0 disarms the chain")
		bGoodDur  = flag.Float64("burst-good-slots", 0, "mean good-state dwell in broadcast slots (0 = default 9× bad dwell)")
		bBadDur   = flag.Float64("burst-bad-slots", 0, "mean bad-state dwell in broadcast slots (0 = default 1)")
		boPeriod  = flag.Float64("blackout-period", 0, "per-MH broadcast-downlink blackout period in seconds (0 = no blackouts)")
		boDur     = flag.Float64("blackout-duration", 0, "blackout window length in seconds (0 = default period/10)")
		degraded  = flag.Bool("degraded", false, "arm the degraded-mode query planner (fallback ladder instead of naive stalls)")
		contRate  = flag.Float64("continuous-rate", 0, "continuous-subscription registrations per minute (0 = no standing queries)")
		contNaive = flag.Bool("continuous-naive", false, "re-verify standing queries every tick instead of using safe regions (baseline)")
		crowdRate = flag.Float64("crowd-rate", 0, "flash-crowd peak query rate per minute injected inside the hotspot (0 = no crowd)")
		crowdRad  = flag.Float64("crowd-radius", 0, "hotspot disk radius in miles (0 = area/10 when the crowd is armed)")
		crowdX    = flag.Float64("crowd-x", 0, "hotspot center x in miles (0 = area center)")
		crowdY    = flag.Float64("crowd-y", 0, "hotspot center y in miles (0 = area center)")
		crowdStrt = flag.Float64("crowd-start", 0, "burst window start in simulated seconds (0 = mid-run)")
		crowdDur  = flag.Float64("crowd-duration", 0, "burst window length in seconds (0 = 10% of the run)")
		queueCap  = flag.Int("queue-cap", 0, "per-peer per-tick service queue capacity; overflow answers BUSY (0 = unbounded)")
		retryBud  = flag.Int("retry-budget", 0, "per-tick system-wide request re-broadcast budget (0 = unbudgeted)")
		admRate   = flag.Float64("admission-rate", 0, "per-MH admission tokens accrued per second; empty buckets shed to broadcast (0 = admit all)")
		admBurst  = flag.Int("admission-burst", 0, "admission token-bucket depth (0 = default 4 when -admission-rate > 0)")
		governed  = flag.Bool("governed", false, "arm the load governor (sheds one-shots while answered-in-budget sits below the floor)")
		govFloor  = flag.Float64("governor-floor", 0, "answered-in-budget ratio below which the governor engages [0, 1] (0 = default 0.9)")
		coalesce  = flag.Float64("coalesce-radius", 0, "co-located same-tick queries within this many miles share one peer gather (0 = off)")
		jsonOut   = flag.Bool("json", false, "emit one JSON object (config + full Stats) on stdout instead of the report")
		grid      = flag.String("grid", "", "run a benchmark grid instead of a single configuration: 'faults'")
		parallel  = flag.Int("parallel", 0, "grid worker count (0 = GOMAXPROCS, 1 = serial; rows identical either way)")
		metricsOn = flag.Bool("metrics", false, "enable the observability layer (counters, gauges, per-phase histograms)")
		mxOut     = flag.String("metrics-out", "", "write the final metrics snapshot as Prometheus text exposition to this file (implies -metrics)")
		mxListen  = flag.String("metrics-listen", "", "serve /metrics and /debug/pprof on this address while the run progresses (implies -metrics)")
		tickWork  = flag.Int("tick-workers", 1, "per-tick query execution workers (1 = the serial seed path, 0 = GOMAXPROCS; results identical either way)")
	)
	flag.Parse()

	// Rate and duration flags are checked here, at parse time, so a typo
	// like -loss -0.1 or -churn-rate NaN dies with the flag's name instead
	// of being silently clamped by Normalized() deep in the stack.
	if err := checkRates([]rateFlag{
		{"loss", *loss, faults.MaxRate},
		{"req-loss", *reqLoss, faults.MaxRate},
		{"reply-loss", *replyLoss, faults.MaxRate},
		{"corrupt", *corrupt, faults.MaxRate},
		{"stale-rate", *staleRate, faults.MaxRate},
		{"churn-rate", *churn, faults.MaxRate},
		{"byzantine-rate", *byzRate, 1},
		{"audit-rate", *auditRate, 1},
		{"burst-good-loss", *bGoodLoss, 1},
		{"burst-bad-loss", *bBadLoss, 1},
		{"burst-good-slots", *bGoodDur, 0},
		{"burst-bad-slots", *bBadDur, 0},
		{"blackout-period", *boPeriod, 0},
		{"blackout-duration", *boDur, 0},
		{"update-rate", *updRate, 0},
		{"ir-period", *irPeriod, 0},
		{"vr-ttl", *vrTTL, 0},
		{"continuous-rate", *contRate, 0},
		{"crowd-rate", *crowdRate, 0},
		{"crowd-radius", *crowdRad, 0},
		{"crowd-x", *crowdX, 0},
		{"crowd-y", *crowdY, 0},
		{"crowd-start", *crowdStrt, 0},
		{"crowd-duration", *crowdDur, 0},
		{"admission-rate", *admRate, 0},
		{"governor-floor", *govFloor, 1},
		{"coalesce-radius", *coalesce, 0},
		{"min-speed", *minSpeed, 0},
		{"max-speed", *maxSpeed, 0},
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *grid != "" {
		if *grid != "faults" {
			fmt.Fprintf(os.Stderr, "unknown grid %q (supported: faults)\n", *grid)
			os.Exit(2)
		}
		reports, err := experiments.RunFaultGrid(sweep.Workers(*parallel), *side, *hours)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		for _, rep := range reports {
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	var p sim.Params
	switch strings.ToLower(*set) {
	case "la":
		p = sim.LACity()
	case "suburbia":
		p = sim.SyntheticSuburbia()
	case "riverside":
		p = sim.RiversideCounty()
	default:
		fmt.Fprintf(os.Stderr, "unknown parameter set %q\n", *set)
		os.Exit(2)
	}

	p = p.Scaled(*side).WithDuration(*hours)
	p.TimeStepSec = *step
	p.Seed = *seed
	p.AcceptApproximate = *approx
	switch strings.ToLower(*kind) {
	case "knn":
		p.Kind = sim.KNNQuery
	case "window":
		p.Kind = sim.WindowQuery
	default:
		fmt.Fprintf(os.Stderr, "unknown query kind %q\n", *kind)
		os.Exit(2)
	}
	if *tx > 0 {
		p.TxRangeMeters = *tx
	}
	if *cacheSize > 0 {
		p.CacheSize = *cacheSize
	}
	if *k > 0 {
		p.K = *k
	}
	if *window > 0 {
		p.WindowPct = *window
	}
	if *minSpeed > 0 {
		p.MinSpeedMph = *minSpeed
	}
	if *maxSpeed > 0 {
		p.MaxSpeedMph = *maxSpeed
	}
	if strings.ToLower(*policy) == "lru" {
		p.CachePolicy = cache.LRU
	}
	p.SharingHops = *hops
	p.POIClusters = *clusters
	p.POITypes = *types
	p.PrefillQueriesPerHost = *prefill
	p.UseOwnCache = *owncache
	p.Faults.BroadcastLoss = *loss
	p.Faults.RequestLoss = *reqLoss
	p.Faults.ReplyLoss = *replyLoss
	p.Faults.ReplyTruncate = *corrupt / 2
	p.Faults.ReplyCorrupt = *corrupt / 2
	p.Faults.StaleRate = *staleRate
	p.Faults.MaxRetries = *retries
	p.Faults.ChurnRate = *churn
	p.Faults.ByzantineRate = *byzRate
	if *attack != "" {
		a, err := faults.ParseAttack(*attack)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		p.Faults.Attack = a
	}
	p.Faults.BurstGoodLoss = *bGoodLoss
	p.Faults.BurstBadLoss = *bBadLoss
	p.Faults.BurstGoodSlots = *bGoodDur
	p.Faults.BurstBadSlots = *bBadDur
	p.Faults.BlackoutPeriodSec = *boPeriod
	p.Faults.BlackoutDurationSec = *boDur
	p.DegradedMode = *degraded
	p.AuditRate = *auditRate
	p.UpdateRate = *updRate
	p.IRPeriodSec = *irPeriod
	p.IRWindow = *irWindow
	p.VRTTLSec = *vrTTL
	p.IRDiscard = *irDiscard
	p.ContinuousRate = *contRate
	p.ContinuousNaive = *contNaive
	p.CrowdRate = *crowdRate
	p.CrowdRadiusMiles = *crowdRad
	p.CrowdCenterXMiles = *crowdX
	p.CrowdCenterYMiles = *crowdY
	p.CrowdStartSec = *crowdStrt
	p.CrowdDurationSec = *crowdDur
	p.PeerQueueCap = *queueCap
	p.RetryBudget = *retryBud
	p.AdmissionRate = *admRate
	p.AdmissionBurst = *admBurst
	p.Governed = *governed
	p.GovernorFloor = *govFloor
	p.CoalesceRadiusMiles = *coalesce
	p.DeadlineSlots = *deadline
	p.BreakerThreshold = *brThresh
	p.BreakerCooldown = *brCool
	p.Metrics = *metricsOn || *mxOut != "" || *mxListen != ""
	p.TickWorkers = sweep.Workers(*tickWork)

	w, err := sim.NewWorld(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p = w.Params // defaults applied: the reports below show the values simulated
	w.CompareBaseline = *baseline
	w.BaselineSampleRate = 1
	w.SelfCheck = *selfcheck
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w.Trace = trace.NewWriter(f)
		defer w.Trace.Flush()
	}

	if !*jsonOut {
		fmt.Printf("%s — %s queries, %.1f-mile area, %d hosts, %d POIs, %.0f queries/min\n",
			p.Name, p.Kind, p.AreaMiles, p.MHNumber, p.POINumber, p.QueryRate)
		fmt.Printf("tx=%.0fm cache=%d k=%d window=%.1f%% policy=%v duration=%.2fh seed=%d\n\n",
			p.TxRangeMeters, p.CacheSize, p.K, p.WindowPct, p.CachePolicy, p.DurationHours, p.Seed)
	}

	if *mxListen != "" {
		// Live observability: /metrics serves the latest published
		// snapshot (immutable, so no lock touches the simulation
		// goroutine) and /debug/pprof exposes the runtime profiles on the
		// same mux.
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(w.Metrics()))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*mxListen, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
			}
		}()
		if !*jsonOut {
			fmt.Printf("serving /metrics and /debug/pprof on %s\n\n", *mxListen)
		}
	}

	start := time.Now()
	var stats sim.Stats
	if reg := w.Metrics(); reg != nil {
		// Publish a fresh snapshot after every simulation step so the
		// HTTP endpoint tracks the run; the hook only reads, so the
		// trajectory is identical to a plain Run.
		stats = w.RunTick(func() { reg.Publish() })
	} else {
		stats = w.Run()
	}
	elapsed := time.Since(start)

	if err := w.SelfCheckErr(); err != nil {
		fmt.Fprintf(os.Stderr, "SELF-CHECK FAILED: %v\n", err)
		os.Exit(1)
	}

	if *mxOut != "" {
		if err := writeMetrics(*mxOut, w.Metrics()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		rep := sim.NewReport(p, stats, *selfcheck, elapsed.Seconds())
		if reg := w.Metrics(); reg != nil {
			snap := reg.Snapshot()
			rep.Metrics = &snap
		}
		emitJSON(rep)
		return
	}

	fmt.Printf("queries counted (post warm-up): %d\n", stats.Queries)
	fmt.Printf("  resolved by SBNN/SBWQ (verified): %6.1f%%\n", stats.VerifiedPct())
	if p.Kind == sim.KNNQuery {
		fmt.Printf("  resolved by approximate SBNN:     %6.1f%%\n", stats.ApproximatePct())
	}
	fmt.Printf("  resolved by broadcast channel:    %6.1f%%\n", stats.BroadcastPct())
	fmt.Printf("\nmean reachable peers per query: %.1f\n", stats.AvgPeers())
	fmt.Printf("P2P traffic: %d requests, %d replies, %.0f bytes/query\n",
		stats.PeerRequests, stats.PeerReplies, stats.AvgPeerBytes())
	if stats.Broadcast > 0 {
		fmt.Printf("\nchannel cost (broadcast-resolved queries):\n")
		fmt.Printf("  mean access latency: %.1f slots\n", stats.AvgLatencySlots())
		fmt.Printf("  mean tuning time:    %.1f slots\n", stats.AvgTuningSlots())
		fmt.Printf("  packets read / skipped by search bounds: %d / %d\n",
			stats.PacketsRead, stats.PacketsSkipped)
	}
	fmt.Printf("mean system latency over all queries: %.1f slots\n", stats.MeanSystemLatencySlots())
	if stats.FaultEvents() > 0 || stats.PeerRetries > 0 {
		fmt.Printf("\nfault injection (deterministic under -seed %d):\n", p.Seed)
		fmt.Printf("  requests unheard:              %d (retries: %d)\n",
			stats.RequestsUnheard, stats.PeerRetries)
		fmt.Printf("  replies dropped / rejected:    %d / %d (CRC or structure)\n",
			stats.RepliesDropped, stats.RepliesRejected)
		fmt.Printf("  stale regions discarded:       %d\n", stats.StaleVRs)
		fmt.Printf("  packet / index re-receptions:  %d / %d (extra cycle or replica waits)\n",
			stats.Retransmissions, stats.IndexRetries)
	}
	if stats.ResilienceEvents() > 0 {
		fmt.Printf("\ncollection lifecycle (deadline=%d slots, breaker=%d/%d, churn=%.2f):\n",
			p.DeadlineSlots, p.BreakerThreshold, p.BreakerCooldown, p.Faults.ChurnRate)
		fmt.Printf("  deadline aborts:               %d (backoff spent: %d slots)\n",
			stats.DeadlineAborts, stats.BackoffSlots)
		fmt.Printf("  breaker trips / short-circuits / recoveries: %d / %d / %d\n",
			stats.BreakerTrips, stats.BreakerShortCircuits, stats.BreakerRecoveries)
		fmt.Printf("  churn departures / returns:    %d / %d (wasted retries: %d)\n",
			stats.ChurnDepartures, stats.ChurnReturns, stats.WastedRetries)
	}
	if stats.TrustEvents() > 0 || stats.ByzantineLies > 0 {
		fmt.Printf("\ntrust layer (byzantine=%.2f attack=%v audit=%.2f):\n",
			p.Faults.ByzantineRate, p.Faults.Normalized().Attack, p.AuditRate)
		fmt.Printf("  byzantine lies told:           %d\n", stats.ByzantineLies)
		fmt.Printf("  audits run / failed:           %d / %d (cost: %d slots)\n",
			stats.AuditsRun, stats.AuditFailures, stats.AuditSlots)
		fmt.Printf("  cross-validation conflicts:    %d\n", stats.ConflictsDetected)
		fmt.Printf("  peers quarantined:             %d (area: %.2f sq mi)\n",
			stats.PeersQuarantined, stats.QuarantinedArea)
	}
	if stats.ConsistencyEvents() > 0 {
		fmt.Printf("\nconsistency layer (update-rate=%.2f/min ir-period=%.0fs ir-window=%d vr-ttl=%.0fs discard=%v):\n",
			p.UpdateRate, p.IRPeriodSec, p.IRWindow, p.VRTTLSec, p.IRDiscard)
		fmt.Printf("  POI updates applied:           %d (%d IR broadcasts)\n",
			stats.POIUpdates, stats.IRBroadcasts)
		fmt.Printf("  IR listens:                    %d (%d slots, %d replica waits)\n",
			stats.IRListens, stats.IRListenSlots, stats.IRListenRetries)
		fmt.Printf("  VRs reconciled / demoted / discarded: %d / %d / %d\n",
			stats.VRsReconciled, stats.VRsDemoted, stats.VRsDiscarded)
		fmt.Printf("  VRs expired (TTL):             %d\n", stats.VRsExpired)
		fmt.Printf("  stale verdicts (amnestied):    %d\n", stats.StaleVerdicts)
	}
	if stats.ChannelEvents() > 0 || stats.AnsweredInBudget > 0 {
		fmt.Printf("\nchannel impairment (burst=%.2f@%g/%g slots blackout=%gs/%gs degraded=%v):\n",
			p.Faults.BurstBadLoss, p.Faults.BurstBadSlots, p.Faults.BurstGoodSlots,
			p.Faults.BlackoutDurationSec, p.Faults.BlackoutPeriodSec, p.DegradedMode)
		fmt.Printf("  burst frame losses / transitions: %d / %d\n",
			stats.BurstFrameLosses, stats.BurstTransitions)
		fmt.Printf("  blackout stalls:               %d queries (%d dead-air slots, %d recoveries)\n",
			stats.BlackoutQueries, stats.BlackoutWaitSlots, stats.BlackoutRecoveries)
		fmt.Printf("  IR listens deferred (dark downlink): %d\n", stats.IRDeferred)
		fmt.Printf("  fade-suppressed breaker strikes: %d\n", stats.FadeSuppressedStrikes)
		if p.DegradedMode {
			fmt.Printf("  fallback rungs p2p-only / onair-only / own-cache: %d / %d / %d (%d switch slots)\n",
				stats.ModeP2POnly, stats.ModeOnAirOnly, stats.ModeOwnCache, stats.ModeSwitchSlots)
			fmt.Printf("  degraded / unanswered:         %d / %d (worst staleness bound: %ds)\n",
				stats.Degraded, stats.Unanswered, stats.StaleBoundMaxSec)
		}
		fmt.Printf("  answered in budget:            %.1f%%\n", stats.AnsweredInBudgetPct())
	}
	if stats.ContinuousEvents() > 0 {
		fmt.Printf("\ncontinuous queries (rate=%.2f/min naive=%v):\n",
			p.ContinuousRate, p.ContinuousNaive)
		fmt.Printf("  subscriptions registered:      %d\n", stats.Subscriptions)
		fmt.Printf("  safe-region hits / reverifies: %d / %d (fraction %.2f)\n",
			stats.SafeRegionHits, stats.Reverifies, stats.ReverifyFraction())
		fmt.Printf("  reverify reasons exit / taint / unverified / naive: %d / %d / %d / %d\n",
			stats.ReverifyExits, stats.ReverifyTaints, stats.ReverifyUnverified, stats.ReverifyNaive)
		fmt.Printf("  degraded answers:              %d (maintenance cost: %d slots)\n",
			stats.ContDegraded, stats.ContSlots)
	}
	if stats.OverloadEvents() > 0 {
		fmt.Printf("\noverload plane (crowd=%.0f/min queue-cap=%d retry-budget=%d admission=%.2f/s governed=%v coalesce=%.2fmi):\n",
			p.CrowdRate, p.PeerQueueCap, p.RetryBudget, p.AdmissionRate,
			p.Governed, p.CoalesceRadiusMiles)
		fmt.Printf("  crowd queries injected:        %d\n", stats.CrowdQueries)
		fmt.Printf("  busy replies / queue drops:    %d / %d (never breaker strikes)\n",
			stats.BusyReplies, stats.QueueDrops)
		fmt.Printf("  queries shed to broadcast:     %d (admission: %d, governor: %d)\n",
			stats.Shed, stats.AdmissionDenied, stats.GovernorSheds)
		fmt.Printf("  governor engaged:              %d ticks\n", stats.GovernorEngagedTicks)
		fmt.Printf("  retry budget exhaustions:      %d\n", stats.RetryBudgetExhausted)
		fmt.Printf("  coalesced gathers:             %d\n", stats.Coalesced)
		fmt.Printf("  goodput:                       %.1f%%\n", stats.GoodputPct())
	}
	if *baseline && stats.BaselineSampled > 0 {
		base := stats.BaselineMeanLatencySlots()
		fmt.Printf("\nplain on-air baseline: %.1f slots/query (%d sampled)\n",
			base, stats.BaselineSampled)
		if base > 0 {
			fmt.Printf("latency reduction from sharing: %.1f%%\n",
				100*(1-stats.MeanSystemLatencySlots()/base))
		}
	}
	if *selfcheck {
		fmt.Println("\nself-check: every exact result matched the R-tree ground truth")
	}
	if *traceFile != "" {
		fmt.Printf("trace: %d events written to %s\n", w.Trace.Count(), *traceFile)
	}
	if *mxOut != "" {
		fmt.Printf("metrics: snapshot written to %s\n", *mxOut)
	}
	fmt.Printf("\nwall time %.1fs\n", elapsed.Seconds())
}

// rateFlag is one float flag bounded to [0, max] (max 0 = no upper
// bound, just non-negative and finite).
type rateFlag struct {
	name string
	v    float64
	max  float64
}

// checkRates rejects NaN, infinite, negative, or out-of-range values
// with the offending flag's name, so misconfigurations die at parse
// time instead of being clamped silently downstream.
func checkRates(flags []rateFlag) error {
	for _, f := range flags {
		switch {
		case math.IsNaN(f.v):
			return fmt.Errorf("-%s: NaN is not a rate", f.name)
		case math.IsInf(f.v, 0):
			return fmt.Errorf("-%s: value must be finite", f.name)
		case f.v < 0:
			return fmt.Errorf("-%s: negative value %v", f.name, f.v)
		case f.max > 0 && f.v > f.max:
			return fmt.Errorf("-%s: %v exceeds maximum %v", f.name, f.v, f.max)
		}
	}
	return nil
}

// writeMetrics dumps the final registry snapshot as Prometheus text
// exposition (format 0.0.4) — deterministic for a fixed seed.
func writeMetrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func emitJSON(rep sim.Report) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
