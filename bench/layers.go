package main

import (
	"fmt"
	"os"

	"lbsq/internal/sim"
)

// traceMetrics computes the per-layer metrics of a traced run from its
// passes: CPU samples charged to layers, exact counts from the
// simulator's public counters, and — on the zero-knob workloads — the
// layer replay. It writes the span file and fills the traced fields of
// det, appending to det.Problems when a check of the traced run fails.
func traceMetrics(cfg runConfig, passes []pass, pool pooled, rec *recorder, det *detail) (map[string]float64, error) {
	values := map[string]float64{}
	queries := float64(pool.window.Queries)

	// 1. CPU attribution over the timed windows.
	cpuNs, underNs := map[string]float64{}, map[string]float64{}
	for i, ps := range passes {
		prof, err := parseProfile(ps.profile)
		if err != nil {
			return nil, fmt.Errorf("replica %d CPU profile: %w", i, err)
		}
		det.CPUSamples += int(attributeCPU(prof, cpuNs, underNs))
	}
	var cpuSum float64
	for _, l := range cpuLayers {
		values["cpu."+l+".us_per_query"] = ratio(cpuNs[l]/1e3, queries)
		cpuSum += cpuNs[l] / 1e3
	}
	det.CPUSumRatio = ratio(cpuSum, pool.wallUs)
	det.CPUUnderPct = map[string]float64{}
	for l, ns := range underNs {
		det.CPUUnderPct[l] = 100 * ratio(ns/1e3, cpuSum)
	}
	if det.CPUSumRatio < 1-cpuSumTolerance || det.CPUSumRatio > 1+cpuSumTolerance {
		// Sampling accuracy is the host's, not the program's: say so, but
		// leave the run's correctness to the output checks.
		fmt.Fprintf(os.Stderr, "bench: %s: CPU samples add up to %.0f%% of the timed wall time (want within %.0f%%)\n",
			cfg.wl.Name, 100*det.CPUSumRatio, 100*cpuSumTolerance)
	}

	// 2. Exact counts.
	countValues(passes, pool, values)

	// 3. Layer replay of replica 0. The armed workloads have no plain
	// path to replay; their replay.* metrics stay 0.
	if cfg.wl.ZeroKnob {
		p := cfg.wl.params(cfg.seed, 0, cfg.quick)
		w, err := sim.NewWorld(p)
		if err != nil {
			return nil, err
		}
		rp, err := newReplayer(w.Params, w.Database(), w.Schedule(), rec)
		if err != nil {
			return nil, err
		}
		from := len(rec.spans)
		out := rp.run()
		replayMetrics(rec, from, out, values)
		det.ReplaySharedPct = out.sharedPct()
		det.RealSharedPct = passes[0].window.SharedPct()
		if err := out.validate(det.RealSharedPct); err != nil {
			det.Problems = append(det.Problems, err.Error())
		}
	}

	path, err := writeTrace(cfg.outDir, traceDoc{Workload: cfg.wl.Name, Seed: cfg.seed,
		Env: stampEnv(), Detail: *det, Metrics: values}, rec)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	det.TraceFile = path
	return values, nil
}

// cpuSumTolerance is how far Σcpu.* may sit from the timed wall time
// before the traced run warns. The second core's collector work lifts
// the sum above the wall time on allocation-heavy workloads.
const cpuSumTolerance = 0.15

// countValues fills the count.* metrics from the timed windows' Stats
// and the metrics registries.
func countValues(passes []pass, pool pooled, values map[string]float64) {
	s := pool.window
	q := float64(s.Queries)
	onAir := float64(s.Broadcast)
	replies := float64(s.PeerReplies)

	var neighbors, quarantined, mvrRects, candidates float64
	for _, ps := range passes {
		neighbors += ps.window.AvgPeers() * float64(ps.window.Queries)
		quarantined += float64(ps.final.PeersQuarantined)
		if ps.snapshot != nil {
			if h, ok := ps.snapshot.Histogram("lbsq_phase_mvr_merge_work"); ok {
				mvrRects += h.Sum
			}
			if h, ok := ps.snapshot.Histogram("lbsq_phase_nnv_verify_work"); ok {
				candidates += h.Sum
			}
		}
	}

	values["count.p2p.neighbors_per_query"] = ratio(neighbors, q)
	values["count.p2p.requests_per_query"] = ratio(float64(s.PeerRequests), q)
	values["count.p2p.replies_per_query"] = ratio(replies, q)
	values["count.p2p.retries_per_query"] = ratio(float64(s.PeerRetries), q)
	values["count.p2p.breaker_short_circuits_per_query"] = ratio(float64(s.BreakerShortCircuits), q)
	// Ad-hoc bytes (requests included) per delivered reply, so that
	// bytes_per_reply × replies_per_query is the peer bytes per query.
	values["count.wire.bytes_per_reply"] = ratio(float64(s.PeerBytes), replies)
	values["count.wire.rejected_per_1k_replies"] = 1000 * ratio(float64(s.RepliesRejected), replies)
	values["count.faults.replies_dropped_per_1k"] = 1000 * ratio(float64(s.RepliesDropped), replies)
	values["count.core.verified_pct"] = s.VerifiedPct()
	values["count.core.approximate_pct"] = s.ApproximatePct()
	values["count.core.broadcast_pct"] = s.BroadcastPct()
	values["count.core.mvr_rects_per_query"] = ratio(mvrRects, q)
	values["count.core.candidates_per_query"] = ratio(candidates, q)
	values["count.broadcast.packets_read_per_onair_query"] = ratio(float64(s.PacketsRead), onAir)
	values["count.broadcast.packet_skip_ratio"] = ratio(float64(s.PacketsSkipped), float64(s.PacketsRead+s.PacketsSkipped))
	values["count.broadcast.tuning_slots_per_onair_query"] = ratio(float64(s.TuningSlots), onAir)
	values["count.broadcast.latency_slots_per_onair_query"] = ratio(float64(s.LatencySlots), onAir)
	values["count.broadcast.retransmissions_per_onair_query"] = ratio(float64(s.Retransmissions), onAir)
	values["count.trust.audits_per_query"] = ratio(float64(s.AuditsRun), q)
	values["count.trust.audit_slots_per_query"] = ratio(float64(s.AuditSlots), q)
	values["count.trust.conflicts_per_query"] = ratio(float64(s.ConflictsDetected), q)
	// Convictions by the end of the run, per world.
	values["count.trust.quarantined_peers"] = ratio(quarantined, float64(len(passes)))
	values["count.cache.vrs_reconciled_per_ir"] = ratio(float64(s.VRsReconciled), float64(s.IRBroadcasts))
	values["count.cache.vrs_demoted_per_ir"] = ratio(float64(s.VRsDemoted), float64(s.IRBroadcasts))
	values["count.sim.ir_listen_slots_per_query"] = ratio(float64(s.IRListenSlots), q)
	values["count.sim.reverify_fraction"] = s.ReverifyFraction()
	values["count.sim.deadline_aborts_per_query"] = ratio(float64(s.DeadlineAborts), q)
	values["count.sim.backoff_slots_per_query"] = ratio(float64(s.BackoffSlots), q)
}
