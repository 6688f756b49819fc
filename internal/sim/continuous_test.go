package sim

// Continuous-query acceptance tests (DESIGN.md §15; the knn_zero and
// window_zero goldens pin ContinuousRate = 0). The gates the CI
// continuous-identity lane runs under -race:
//
//   - Armed determinism: identical seeds yield byte-identical reports
//     and traces, for both query kinds.
//   - Safe-region soundness: every safe-region hit re-checks the
//     standing answer against the R-tree ground truth (SelfCheck), so a
//     run with hits and a nil SelfCheckErr is the differential proof
//     that answers inside the safe-exit radius never flip.
//   - The naive baseline re-verifies every tick (fraction 1); the
//     safe-region path must beat it.

import (
	"bytes"
	"testing"
)

// contParams is the armed continuous configuration the tests share:
// small world, short run, subscriptions arriving fast enough that
// maintenance dominates the tick loop.
func contParams(kind QueryKind, seed int64) Params {
	p := LACity().Scaled(1.5).WithDuration(0.1)
	p.Seed = seed
	p.TimeStepSec = 5
	p.Kind = kind
	p.AcceptApproximate = kind == KNNQuery
	p.ContinuousRate = 4
	if kind == WindowQuery {
		// Keep standing windows near their hosts: a 1-mile offset in a
		// 1.5-mile world pins most windows to the map edge, where the
		// safe region soundly collapses — true, but then nothing
		// exercises the hit path.
		p.WindowDistMiles = 0.1
	}
	return p
}

// TestContinuousDeterminism pins armed runs: identical seeds must yield
// byte-identical reports and traces for both query kinds.
func TestContinuousDeterminism(t *testing.T) {
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			p := contParams(kind, 42)
			_, sa, repA, trA := runArmedWorld(t, p)
			_, sb, repB, trB := runArmedWorld(t, p)
			if sa != sb {
				t.Fatalf("armed stats diverged:\n%+v\nvs\n%+v", sa, sb)
			}
			if !bytes.Equal(repA, repB) || !bytes.Equal(trA, trB) {
				t.Fatal("armed run not byte-deterministic")
			}
			if sa.Subscriptions == 0 || sa.Reverifies == 0 {
				t.Fatalf("armed run registered nothing: %+v", sa)
			}
		})
	}
}

// TestContinuousSafeRegionDifferential is the soundness gate: SelfCheck
// re-derives every hit's answer from the R-tree ground truth, so a run
// with safe-region hits and no self-check error proves answers inside
// the safe-exit radius never flip. Several seeds, both kinds.
func TestContinuousSafeRegionDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, kind := range []QueryKind{KNNQuery, WindowQuery} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var hits, ticks int64
			for _, seed := range seeds {
				p := contParams(kind, seed)
				w, err := NewWorld(p)
				if err != nil {
					t.Fatal(err)
				}
				w.SelfCheck = true
				s := w.Run()
				if err := w.SelfCheckErr(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if s.Reverifies != s.ReverifyExits+s.ReverifyTaints+
					s.ReverifyUnverified+s.ReverifyNaive {
					t.Fatalf("seed %d: reverify reasons do not partition: %+v", seed, s)
				}
				hits += s.SafeRegionHits
				ticks += s.MaintenanceTicks()
			}
			if hits == 0 {
				t.Fatal("no safe-region hit across any seed: the fast path never fired")
			}
			t.Logf("%s: %d hits over %d maintenance ticks (fraction %.2f)",
				kind, hits, ticks, float64(ticks-hits)/float64(ticks))
		})
	}
}

// TestContinuousBeatsNaive pins the point of the layer: under identical
// seeds the naive baseline re-verifies every maintenance tick (fraction
// exactly 1, zero hits) while the safe-region path re-verifies strictly
// less.
func TestContinuousBeatsNaive(t *testing.T) {
	p := contParams(KNNQuery, 11)
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Run()
	pn := p
	pn.ContinuousNaive = true
	wn, err := NewWorld(pn)
	if err != nil {
		t.Fatal(err)
	}
	sn := wn.Run()
	if sn.SafeRegionHits != 0 || sn.ReverifyFraction() != 1 {
		t.Fatalf("naive baseline took safe-region hits: %+v", sn)
	}
	if s.ReverifyFraction() >= 1 {
		t.Fatalf("safe-region path never beat naive: fraction=%v stats=%+v",
			s.ReverifyFraction(), s)
	}
	if s.Subscriptions != sn.Subscriptions {
		t.Fatalf("registration stream diverged across arms: %d vs %d",
			s.Subscriptions, sn.Subscriptions)
	}
	t.Logf("fraction: continuous %.3f vs naive %.3f (slots %d vs %d)",
		s.ReverifyFraction(), sn.ReverifyFraction(), s.ContSlots, sn.ContSlots)
}

// TestContinuousTaints pins the consistency interaction: with the
// POI-update process armed, epoch advances must surface as taint
// re-verifications, and the run must stay self-check clean.
func TestContinuousTaints(t *testing.T) {
	p := contParams(KNNQuery, 21)
	p.UpdateRate = 2
	p.IRPeriodSec = 30
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w.SelfCheck = true
	s := w.Run()
	if err := w.SelfCheckErr(); err != nil {
		t.Fatal(err)
	}
	if s.ReverifyTaints == 0 {
		t.Fatalf("armed update process never tainted a subscription: %+v", s)
	}
}

// TestContinuousValidate pins the knob's validation contract.
func TestContinuousValidate(t *testing.T) {
	for _, bad := range []float64{-1, nan()} {
		p := LACity()
		p.ContinuousRate = bad
		if err := p.Validate(); err == nil {
			t.Errorf("ContinuousRate %v validated", bad)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestContinuousReverifyFractionAccessor pins the derived-rate edge
// cases JSONL consumers rely on.
func TestContinuousReverifyFractionAccessor(t *testing.T) {
	var s Stats
	if s.ReverifyFraction() != 0 {
		t.Error("empty stats fraction != 0")
	}
	s.Reverifies, s.ReverifyExits = 3, 3
	s.SafeRegionHits = 9
	if got := s.ReverifyFraction(); got != 0.25 {
		t.Errorf("fraction = %v, want 0.25", got)
	}
	if s.MaintenanceTicks() != 12 {
		t.Errorf("maintenance ticks = %d, want 12", s.MaintenanceTicks())
	}
}

// TestContinuousTraceEvents checks the armed trace stream carries the
// subscription records: cont events with ids, and safe radii on exact
// answers.
func TestContinuousTraceEvents(t *testing.T) {
	p := contParams(KNNQuery, 33)
	_, s, _, tr := runArmedWorld(t, p)
	if s.Reverifies == 0 {
		t.Fatal("no reverifies to trace")
	}
	if !bytes.Contains(tr, []byte(`"kind":"cont-knn"`)) {
		t.Fatal("trace carries no cont-knn events")
	}
	if !bytes.Contains(tr, []byte(`"subscription":`)) {
		t.Fatal("cont events carry no subscription ids")
	}
	if !bytes.Contains(tr, []byte(`"safe_radius_miles":`)) {
		t.Fatal("no cont event ever carried a safe radius")
	}
}

// TestContinuousReasonPriority checks classify on all 16 inputs against
// the documented order: unverified > naive > taint > exit > hit.
func TestContinuousReasonPriority(t *testing.T) {
	bools := []bool{false, true}
	for _, exact := range bools {
		for _, naive := range bools {
			for _, tainted := range bools {
				for _, outside := range bools {
					// The highest-priority condition that holds, found by
					// walking the documented order from the bottom up.
					want := contHit
					if outside {
						want = contExit
					}
					if tainted {
						want = contTaint
					}
					if naive {
						want = contNaive
					}
					if !exact {
						want = contUnverified
					}
					if got := classify(exact, naive, tainted, outside); got != want {
						t.Errorf("classify(exact=%v naive=%v tainted=%v outside=%v) = %d, want %d",
							exact, naive, tainted, outside, got, want)
					}
				}
			}
		}
	}
}
