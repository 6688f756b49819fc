package trust

import "testing"

// BenchmarkScreenUnderAttack is one screen under a sustained attack nobody
// is convicted for: half the peers lie, audits are rare and the strike
// limit is out of reach, so unvouched disagreeing pairs keep about 300
// rectangles live (in bursts between 150 and 500) — nested, refreshed,
// expiring — and most claims are cut by them. The inputs are drawn and the
// quarantine is filled untimed.
func BenchmarkScreenUnderAttack(b *testing.B) {
	w := newDiffWorld(2, 300, 150)
	e := NewEngine(12, Config{AuditRate: 0.01, quarantineCycles: 32, convictStrikes: 1 << 30}, nil)
	inputs := make([][]Contribution, 512)
	for i := range inputs {
		inputs[i] = w.contributions(20)
	}
	for i := range inputs {
		e.Screen(inputs[i], w.truth, -1)
	}
	live, outline := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Screen(inputs[i%len(inputs)], w.truth, -1)
		live += e.QuarantinedRects()
		outline += len(e.outline)
	}
	b.ReportMetric(float64(live)/float64(b.N), "live-rects")
	b.ReportMetric(float64(outline)/float64(b.N), "outline-rects")
}
