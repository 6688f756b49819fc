package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lbsq/internal/cache"
)

// tiny returns a very small scale so the whole figure suite stays fast in
// unit tests.
func tiny() Options {
	return Options{SideMiles: 2, DurationHours: 0.1, TimeStepSec: 20, Seed: 7}
}

// figureRuns memoizes the figures of tiny() by Figure.ID: a figure is a
// few seconds of simulation and four tests read the same three. Each is
// resolved through ByID under whatever alias asked first.
var figureRuns = map[string]Figure{}

func figureOf(t *testing.T, id string) Figure {
	t.Helper()
	key := "Fig" + strings.TrimPrefix(strings.ToLower(id), "fig")
	f, ok := figureRuns[key]
	if !ok {
		var err error
		if f, err = ByID(id, tiny()); err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
		figureRuns[key] = f
	}
	if f.ID != key {
		t.Fatalf("ByID(%q) returned %s, want %s", id, f.ID, key)
	}
	return f
}

func checkFigure(t *testing.T, f Figure, wantPoints int) {
	t.Helper()
	if len(f.Series) != 3 {
		t.Fatalf("%s: %d series, want 3 parameter sets", f.ID, len(f.Series))
	}
	names := map[string]bool{}
	for _, s := range f.Series {
		names[s.SetName] = true
		if len(s.Points) != wantPoints {
			t.Fatalf("%s/%s: %d points want %d", f.ID, s.SetName, len(s.Points), wantPoints)
		}
		for _, p := range s.Points {
			sum := p.VerifiedPct + p.ApproximatePct + p.BroadcastPct
			if p.Stats.Queries > 0 && (sum < 99.9 || sum > 100.1) {
				t.Fatalf("%s/%s x=%v: shares sum to %v", f.ID, s.SetName, p.X, sum)
			}
			if !f.HasApproximate && p.ApproximatePct != 0 {
				t.Fatalf("%s: window figure reports approximate share", f.ID)
			}
		}
	}
	if !names["Los Angeles City"] || !names["Riverside County"] {
		t.Fatalf("%s: missing parameter sets: %v", f.ID, names)
	}
}

func TestFig10Shape(t *testing.T) {
	f := figureOf(t, "Fig10")
	checkFigure(t, f, len(TxRangeSweep()))
	// Monotone trend: sharing at max range must beat sharing at min range
	// for the dense set.
	la := f.Series[0]
	first := la.Points[0].VerifiedPct + la.Points[0].ApproximatePct
	last := la.Points[len(la.Points)-1].VerifiedPct + la.Points[len(la.Points)-1].ApproximatePct
	if last <= first {
		t.Errorf("LA sharing did not grow with range: %v -> %v", first, last)
	}
}

func TestFig11Shape(t *testing.T) {
	f := Fig11(tiny())
	checkFigure(t, f, len(CacheSweep()))
}

func TestFig12Shape(t *testing.T) {
	f := Fig12(tiny())
	checkFigure(t, f, len(KSweep()))
	// Bigger k must not make sharing easier (LA trend).
	la := f.Series[0]
	first := la.Points[0].VerifiedPct + la.Points[0].ApproximatePct
	last := la.Points[len(la.Points)-1].VerifiedPct + la.Points[len(la.Points)-1].ApproximatePct
	if last > first+10 {
		t.Errorf("sharing grew sharply with k: %v -> %v", first, last)
	}
}

func TestFig13Through15Shape(t *testing.T) {
	checkFigure(t, figureOf(t, "13"), len(TxRangeSweep()))
	checkFigure(t, figureOf(t, "FIG14"), len(CacheSweep()))
	f15 := figureOf(t, "fig15")
	checkFigure(t, f15, len(WindowSweep()))
	// Bigger windows are harder to cover (LA trend).
	la := f15.Series[0]
	if la.Points[len(la.Points)-1].VerifiedPct > la.Points[0].VerifiedPct+10 {
		t.Errorf("window coverage grew with window size: %v -> %v",
			la.Points[0].VerifiedPct, la.Points[len(la.Points)-1].VerifiedPct)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"10", "Fig10", "fig15", "13"} {
		figureOf(t, id)
	}
	if _, err := ByID("99", tiny()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureWriteTo(t *testing.T) {
	f := figureOf(t, "10")
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig10", "Los Angeles City", "Riverside County",
		"SBNN %", "Broadcast %", "Approx %"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Window figure omits the approximate column.
	var buf2 bytes.Buffer
	if _, err := figureOf(t, "Fig13").WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "Approx %") {
		t.Error("window figure must not print an approximate column")
	}
	if !strings.Contains(buf2.String(), "SBWQ %") {
		t.Error("window figure must print the SBWQ column")
	}
}

func TestLatencyReduction(t *testing.T) {
	rows := LatencyReduction(tiny())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaselineMeanLatencySlots <= 0 {
			t.Fatalf("%s: baseline latency %v", r.SetName, r.BaselineMeanLatencySlots)
		}
		if r.SharedMeanLatencySlots > r.BaselineMeanLatencySlots+1 {
			t.Fatalf("%s: sharing raised latency (%v > %v)",
				r.SetName, r.SharedMeanLatencySlots, r.BaselineMeanLatencySlots)
		}
		if r.ChannelAccessAvoidedPct < 0 || r.ChannelAccessAvoidedPct > 100 {
			t.Fatalf("%s: avoided %v", r.SetName, r.ChannelAccessAvoidedPct)
		}
	}
	// The dense set must avoid more channel accesses than the sparse one.
	if rows[0].ChannelAccessAvoidedPct <= rows[2].ChannelAccessAvoidedPct {
		t.Errorf("LA avoided %.1f%% <= Riverside %.1f%%",
			rows[0].ChannelAccessAvoidedPct, rows[2].ChannelAccessAvoidedPct)
	}
	var buf bytes.Buffer
	WriteLatency(&buf, rows)
	if !strings.Contains(buf.String(), "latency") {
		t.Error("latency table missing header")
	}
}

func TestAnalysisVsSim(t *testing.T) {
	rows := AnalysisVsSim(tiny())
	if len(rows) != 12 { // 3 sets x 4 ranges
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.PredictedPct < 0 || r.PredictedPct > 100 {
			t.Fatalf("predicted %v out of range", r.PredictedPct)
		}
		if r.SimulatedPct < 0 || r.SimulatedPct > 100 {
			t.Fatalf("simulated %v out of range", r.SimulatedPct)
		}
	}
	var buf bytes.Buffer
	WriteAnalysis(&buf, rows)
	if !strings.Contains(buf.String(), "model %") {
		t.Error("analysis table missing header")
	}
}

func TestCachePolicyAblation(t *testing.T) {
	rows := CachePolicyAblation(tiny())
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	seen := map[cache.Policy]int{}
	for _, r := range rows {
		seen[r.Policy]++
		if r.SharedPct < 0 || r.SharedPct > 100 {
			t.Fatalf("shared %v out of range", r.SharedPct)
		}
	}
	if seen[cache.DirectionDistance] != 3 || seen[cache.LRU] != 3 {
		t.Fatalf("policy coverage: %v", seen)
	}
}

func TestApproxThresholdAblation(t *testing.T) {
	rows := ApproxThresholdAblation(tiny())
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Stricter thresholds accept no more approximate answers (weak
	// monotonicity up to noise).
	if rows[0].ApproximatePct+10 < rows[len(rows)-1].ApproximatePct {
		t.Errorf("approximate share grew with threshold: %v -> %v",
			rows[0].ApproximatePct, rows[len(rows)-1].ApproximatePct)
	}
}
