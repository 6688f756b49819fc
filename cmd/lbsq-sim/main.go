// Command lbsq-sim runs a single configuration of the full system model
// (Section 4.1) and prints the resulting statistics. It defaults to a
// density-preserving 5-mile scale of the chosen Table 3 parameter set;
// pass -side 20 for the paper's full 20-mile area (the Los Angeles set
// then simulates all 93,300 vehicles).
//
// `lbsq-sim -h` lists every flag under the layer it configures. All but
// the ones registered by hand below are generated from the tagged knob
// declarations — sim.Params, the per-layer knob structs it embeds and
// faults.Profile (see internal/knob) — whose doc comments hold the
// semantics; a world knob left at zero keeps the preset's value. DESIGN.md
// has the models: §7 faults, §8 collection lifecycle, §10 metrics, §11
// trust, §12 consistency, §13 bursts, blackouts and the degraded planner,
// §14 tick workers, §15 continuous queries, §16 crowds and overload
// control. Every layer is off at its zero value, output is then
// bit-identical to a build without it, and every run is deterministic
// under -seed. A value outside a knob's range exits 2 naming the flag.
// -json emits the run as one JSONL row (sim.Report) instead of the report;
// the fault/resilience grid of such rows is `lbsq-figures -fig faults`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"lbsq/internal/faults"
	"lbsq/internal/knob"
	"lbsq/internal/metrics"
	"lbsq/internal/sim"
	"lbsq/internal/sweep"
	"lbsq/internal/trace"
)

// cli holds the flags registered by hand — the preset, the seed (which may
// be negative), -corrupt (which lands in two fields) and the ones that
// steer the run and its output — and knobs, the Params every generated
// flag writes into (laid over the preset after parsing).
type cli struct {
	set, traceFile, mxOut, mxListen         string
	corrupt                                 float64
	seed                                    int64
	jsonOut, baseline, selfcheck, metricsOn bool
	knobs                                   sim.Params
}

// register defines all of lbsq-sim's flags on fs.
func register(fs *flag.FlagSet) *cli {
	c := &cli{knobs: sim.Params{AreaMiles: 5, DurationHours: 0.5, TimeStepSec: 10, AcceptApproximate: true,
		SharingHops: 1, POITypes: 1, PrefillQueriesPerHost: 10, TickWorkers: 1}}
	knob.Bind(fs, &c.knobs)
	fs.StringVar(&c.set, "set", "la", "parameter set: la, suburbia, riverside")
	fs.Int64Var(&c.seed, "seed", 42, "random seed")
	fs.BoolVar(&c.baseline, "baseline", false, "also price every query with the plain on-air algorithms")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "verify every exact result against the R-tree ground truth")
	fs.StringVar(&c.traceFile, "trace", "", "write one JSONL event per counted query to this file")
	fs.Float64Var(&c.corrupt, "corrupt", 0, "P2P reply damage rate, half truncation half bit flips [0, 0.95]")
	fs.BoolVar(&c.jsonOut, "json", false, "emit one JSON object (config + full Stats) on stdout instead of the report")
	fs.BoolVar(&c.metricsOn, "metrics", false, "enable the observability layer (counters, gauges, per-phase histograms)")
	fs.StringVar(&c.mxOut, "metrics-out", "", "write the final metrics snapshot as Prometheus text exposition to this file (implies -metrics)")
	fs.StringVar(&c.mxListen, "metrics-listen", "", "serve /metrics and /debug/pprof on this address while the run progresses (implies -metrics)")
	fs.Usage = func() { usage(fs, &c.knobs) }
	return c
}

// usage prints every flag under the `layer` title its knob is declared
// beneath, in declaration order of the layers; the untitled knobs of
// sim.Params and the flags registered by hand come first. Each group goes
// through a FlagSet of its own, so the lines are flag.PrintDefaults's.
func usage(fs *flag.FlagSet, knobs *sim.Params) {
	layerOf := map[string]string{}
	layers := []string{""}
	knob.Walk(knobs, func(k knob.Knob) {
		layerOf[k.Flag] = k.Layer
		if k.Flag != "" && !slices.Contains(layers, k.Layer) {
			layers = append(layers, k.Layer)
		}
	})
	w := fs.Output()
	fmt.Fprintf(w, "Usage: lbsq-sim [flags]\n\nrun, world and output:\n")
	for _, layer := range layers {
		if layer != "" {
			fmt.Fprintf(w, "\n%s:\n", layer)
		}
		group := flag.NewFlagSet(layer, flag.ContinueOnError)
		group.SetOutput(w)
		fs.VisitAll(func(f *flag.Flag) {
			if layerOf[f.Name] == layer {
				group.Var(f.Value, f.Name, f.Usage)
				group.Lookup(f.Name).DefValue = f.DefValue // not what was parsed before -h
			}
		})
		group.PrintDefaults()
	}
}

// die prints the error and exits: 2 for a bad command line, 1 for a run
// that failed.
func die(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

func main() {
	c := register(flag.CommandLine)
	flag.Parse()

	// Every knob is range-checked here, at parse time, so a typo like
	// -loss -0.1 or -churn-rate NaN dies with the flag's name; -corrupt is
	// checked whole because it lands in two fields.
	if !(c.corrupt >= 0 && c.corrupt <= faults.MaxRate) { // NaN fails too
		die(2, fmt.Errorf("-corrupt: %v out of [0, %v]", c.corrupt, faults.MaxRate))
	}
	if err := knob.Check(&c.knobs); err != nil {
		die(2, err)
	}

	preset, ok := map[string]func() sim.Params{
		"la": sim.LACity, "suburbia": sim.SyntheticSuburbia, "riverside": sim.RiversideCounty,
	}[strings.ToLower(c.set)]
	if !ok {
		die(2, fmt.Errorf("unknown parameter set %q", c.set))
	}
	p := preset().Scaled(c.knobs.AreaMiles).WithDuration(c.knobs.DurationHours)
	knob.Copy(&p, &c.knobs) // every generated flag not left at zero, onto the preset
	p.Seed = c.seed
	p.Faults.ReplyTruncate = c.corrupt / 2
	p.Faults.ReplyCorrupt = c.corrupt / 2
	p.Metrics = c.metricsOn || c.mxOut != "" || c.mxListen != ""
	p.TickWorkers = sweep.Workers(p.TickWorkers)

	w, err := sim.NewWorld(p)
	if err != nil {
		die(1, err)
	}
	p = w.Params // defaults applied: the reports below show the values simulated
	w.CompareBaseline = c.baseline
	w.BaselineSampleRate = 1
	w.SelfCheck = c.selfcheck
	if c.traceFile != "" {
		f, err := os.Create(c.traceFile)
		if err != nil {
			die(1, err)
		}
		defer f.Close()
		w.Trace = trace.NewWriter(f)
		defer w.Trace.Flush()
	}

	if !c.jsonOut {
		fmt.Printf("%s — %s queries, %.1f-mile area, %d hosts, %d POIs, %.0f queries/min\n",
			p.Name, p.Kind, p.AreaMiles, p.MHNumber, p.POINumber, p.QueryRate)
		fmt.Printf("tx=%.0fm cache=%d k=%d window=%.1f%% policy=%v duration=%.2fh seed=%d\n\n",
			p.TxRangeMeters, p.CacheSize, p.K, p.WindowPct, p.CachePolicy, p.DurationHours, p.Seed)
	}

	if c.mxListen != "" {
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
			if err := http.ListenAndServe(c.mxListen, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
			}
		}()
		if !c.jsonOut {
			fmt.Printf("serving /metrics and /debug/pprof on %s\n\n", c.mxListen)
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
		die(1, fmt.Errorf("SELF-CHECK FAILED: %v", err))
	}

	if c.mxOut != "" {
		if err := writeMetrics(c.mxOut, w.Metrics()); err != nil {
			die(1, err)
		}
	}

	if c.jsonOut {
		rep := sim.NewReport(p, stats, c.selfcheck, elapsed.Seconds())
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
	if c.baseline && stats.BaselineSampled > 0 {
		base := stats.BaselineMeanLatencySlots()
		fmt.Printf("\nplain on-air baseline: %.1f slots/query (%d sampled)\n",
			base, stats.BaselineSampled)
		if base > 0 {
			fmt.Printf("latency reduction from sharing: %.1f%%\n",
				100*(1-stats.MeanSystemLatencySlots()/base))
		}
	}
	if c.selfcheck {
		fmt.Println("\nself-check: every exact result matched the R-tree ground truth")
	}
	if c.traceFile != "" {
		fmt.Printf("trace: %d events written to %s\n", w.Trace.Count(), c.traceFile)
	}
	if c.mxOut != "" {
		fmt.Printf("metrics: snapshot written to %s\n", c.mxOut)
	}
	fmt.Printf("\nwall time %.1fs\n", elapsed.Seconds())
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
		die(1, err)
	}
}
