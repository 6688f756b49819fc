package faults

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// refCounters is the tally the injector kept before each of its calls
// returned what it did, kept verbatim as the reference those returns are
// summed against.
type refCounters struct {
	RequestsUnheard  int64
	RepliesDropped   int64
	ChurnDepartures  int64
	ChurnReturns     int64
	ByzantineLies    int64
	BurstLosses      int64
	BurstTransitions int64
}

// refInjector is the injector as it was when it counted its own faults:
// the same state and the old method bodies verbatim, each counting into
// Counters.
type refInjector struct {
	prof     Profile
	rng      *rand.Rand
	ge       *gilbert
	lieSeq   int64
	Counters refCounters
}

func newRefInjector(seed int64, p Profile) *refInjector {
	np := p.Normalized()
	return &refInjector{
		prof: np,
		rng:  rand.New(rand.NewSource(seed)),
		ge:   newGilbert(seed, np),
	}
}

func (in *refInjector) RequestHeard() bool {
	heard := true
	if in.prof.RequestLoss > 0 {
		if in.rng.Float64() < in.prof.RequestLoss {
			in.Counters.RequestsUnheard++
			heard = false
		}
	}
	if heard && in.burstLost() {
		in.Counters.RequestsUnheard++
		heard = false
	}
	return heard
}

func (in *refInjector) ReplyFate() ReplyFate {
	fate := FateDeliver
	p := in.prof
	if p.ReplyLoss > 0 || p.ReplyTruncate > 0 || p.ReplyCorrupt > 0 {
		u := in.rng.Float64()
		switch {
		case u < p.ReplyLoss:
			in.Counters.RepliesDropped++
			fate = FateDrop
		case u < p.ReplyLoss+p.ReplyTruncate:
			fate = FateTruncate
		case u < p.ReplyLoss+p.ReplyTruncate+p.ReplyCorrupt:
			fate = FateCorrupt
		}
	}
	if fate == FateDeliver && in.burstLost() {
		in.Counters.RepliesDropped++
		fate = FateDrop
	}
	return fate
}

func (in *refInjector) ChurnDeparts() bool {
	if in.prof.ChurnRate <= 0 {
		return false
	}
	if in.rng.Float64() < in.prof.ChurnRate {
		in.Counters.ChurnDepartures++
		return true
	}
	return false
}

func (in *refInjector) ChurnReturns() bool {
	if in.prof.ChurnRate <= 0 {
		return false
	}
	if in.rng.Float64() < in.prof.ChurnRate {
		in.Counters.ChurnReturns++
		return true
	}
	return false
}

func (in *refInjector) Jitter(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return in.rng.Int63n(n)
}

// refSync is gilbert.sync as it was, counting flips into c.
func refSync(g *gilbert, slot int64, c *refCounters) {
	if !g.started {
		g.started = true
		g.until = slot + g.dwell(g.goodMean)
	}
	for slot >= g.until {
		g.bad = !g.bad
		c.BurstTransitions++
		mean := g.goodMean
		if g.bad {
			mean = g.badMean
		}
		g.until += g.dwell(mean)
	}
}

func (in *refInjector) Sync(slot int64) {
	if in.ge == nil {
		return
	}
	refSync(in.ge, slot, &in.Counters)
}

func (in *refInjector) burstLost() bool {
	if in.ge == nil {
		return false
	}
	if !in.ge.bad {
		return false
	}
	if in.ge.rng.Float64() < in.ge.badLoss {
		in.Counters.BurstLosses++
		return true
	}
	return false
}

// refMangle is Mangle's body before it damaged the frame in place, kept
// verbatim (as a function of the injector) as the reference the in-place
// kernel is held to.
func refMangle(in *refInjector, b []byte, fate ReplyFate) []byte {
	if len(b) == 0 {
		return b
	}
	switch fate {
	case FateTruncate:
		// Cut strictly inside the message so something, but not
		// everything, arrives.
		cut := 1 + in.rng.Intn(len(b))
		if cut >= len(b) {
			cut = len(b) - 1
		}
		return append([]byte(nil), b[:cut]...)
	case FateCorrupt:
		out := append([]byte(nil), b...)
		flips := 1 + in.rng.Intn(4)
		for i := 0; i < flips; i++ {
			out[in.rng.Intn(len(out))] ^= byte(1) << in.rng.Intn(8)
		}
		return out
	default:
		return b
	}
}

// refAttackClaim is AttackClaim's body before it cut its copies from the
// caller's arena, kept verbatim (as a function of the injector).
func refAttackClaim(in *refInjector, vr geom.Rect, pois []broadcast.POI, a Attack) (geom.Rect, []broadcast.POI) {
	if a == AttackNone {
		return vr, pois
	}
	seq := in.lieSeq
	in.lieSeq++
	if a == AttackMix {
		a = [...]Attack{AttackFabricate, AttackOmit, AttackInflate, AttackShift}[seq%4]
	}
	in.Counters.ByzantineLies++
	switch a {
	case AttackOmit:
		inside := make([]int, 0, len(pois))
		for i, p := range pois {
			if vr.Contains(p.Pos) {
				inside = append(inside, i)
			}
		}
		if len(inside) == 0 {
			return vr, refFabricateInto(in, vr, pois, seq)
		}
		drop := inside[in.rng.Intn(len(inside))]
		out := make([]broadcast.POI, 0, len(pois)-1)
		out = append(out, pois[:drop]...)
		out = append(out, pois[drop+1:]...)
		return vr, out
	case AttackInflate:
		grow := InflateFactor * (vr.Width() + vr.Height()) / 4
		if grow < minMaterialDelta {
			grow = minMaterialDelta
		}
		big := vr.Expand(grow)
		p := big.Min
		for try := 0; try < 8; try++ {
			cand := geom.Pt(
				big.Min.X+in.rng.Float64()*big.Width(),
				big.Min.Y+in.rng.Float64()*big.Height(),
			)
			if !vr.Contains(cand) {
				p = cand
				break
			}
		}
		out := make([]broadcast.POI, 0, len(pois)+1)
		out = append(out, pois...)
		out = append(out, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
		return big, out
	case AttackShift:
		if len(pois) == 0 {
			return vr, refFabricateInto(in, vr, pois, seq)
		}
		idx := in.rng.Intn(len(pois))
		dx := ShiftFraction * vr.Width() * (2*in.rng.Float64() - 1)
		dy := ShiftFraction * vr.Height() * (2*in.rng.Float64() - 1)
		if dx < minMaterialDelta && dx > -minMaterialDelta &&
			dy < minMaterialDelta && dy > -minMaterialDelta {
			dx, dy = minMaterialDelta, minMaterialDelta
		}
		out := append([]broadcast.POI(nil), pois...)
		out[idx].Pos = out[idx].Pos.Add(geom.Pt(dx, dy))
		return vr, out
	default: // AttackFabricate
		return vr, refFabricateInto(in, vr, pois, seq)
	}
}

func refFabricateInto(in *refInjector, vr geom.Rect, pois []broadcast.POI, seq int64) []broadcast.POI {
	p := vr.Min
	if !vr.Empty() {
		p = geom.Pt(
			vr.Min.X+in.rng.Float64()*vr.Width(),
			vr.Min.Y+in.rng.Float64()*vr.Height(),
		)
	}
	out := make([]broadcast.POI, 0, len(pois)+1)
	out = append(out, pois...)
	out = append(out, broadcast.POI{ID: FabricatedIDBase + seq, Pos: p})
	return out
}

// sameStream reports whether an injector's streams, the legacy one and
// the fading chain's, are where the reference's are, by drawing from both.
func sameStream(got *Injector, ref *refInjector) bool {
	if (got.ge == nil) != (ref.ge == nil) {
		return false
	}
	for i := 0; i < 4; i++ {
		if got.rng.Int63() != ref.rng.Int63() ||
			got.ge != nil && got.ge.rng.Int63() != ref.ge.rng.Int63() {
			return false
		}
	}
	return true
}

// The in-place Mangle arrives at the reference's bytes and leaves the
// stream where the reference leaves it, for both damaging fates and the
// two identities, over frames of every length from 0 to 40.
func TestMangleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for seed := int64(1); seed <= 40; seed++ {
		got, ref := New(seed, Profile{}), newRefInjector(seed, Profile{})
		for trial := 0; trial < 200; trial++ {
			msg := make([]byte, rng.Intn(41))
			rng.Read(msg)
			fate := ReplyFate(rng.Intn(4))
			want := refMangle(ref, msg, fate)
			frame := append([]byte(nil), msg...)
			if out := got.Mangle(frame, fate); !bytes.Equal(out, want) {
				t.Fatalf("seed %d trial %d %v: %x, reference %x", seed, trial, fate, out, want)
			}
		}
		if !sameStream(got, ref) {
			t.Fatalf("seed %d: the stream moved differently from the reference", seed)
		}
	}
}

// AttackClaim into an arena gives the reference's claim — the region and
// every POI, in order — for every attack, AttackMix's rotation included,
// leaves the stream and the lie sequence where the reference leaves them,
// tells one lie a call where the reference counted one, and cuts every
// lied-about set from the arena. Claims come
// with POIs inside, on the boundary of and outside their region, empty
// sets and degenerate regions, so every fallback runs.
func TestAttackClaimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	claim := func() (geom.Rect, []broadcast.POI) {
		x, y := rng.Float64()*10, rng.Float64()*10
		w, h := rng.Float64()*3, rng.Float64()*3
		if rng.Intn(8) == 0 {
			w = 0
		}
		vr := geom.NewRect(x, y, x+w, y+h)
		pois := make([]broadcast.POI, rng.Intn(6))
		for i := range pois {
			p := geom.Pt(x-1+rng.Float64()*(w+2), y-1+rng.Float64()*(h+2))
			if rng.Intn(4) == 0 {
				p = vr.Min // on the boundary
			}
			pois[i] = broadcast.POI{ID: int64(i), Pos: p}
		}
		return vr, pois
	}
	attacks := []Attack{AttackNone, AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix}
	for _, a := range attacks {
		got, ref := New(3, Profile{}), newRefInjector(3, Profile{})
		var arena broadcast.POIArena
		var lies int64
		for trial := 0; trial < 400; trial++ {
			if trial%50 == 0 {
				arena.Rewind()
			}
			vr, pois := claim()
			orig := slices.Clone(pois)
			wvr, wpois := refAttackClaim(ref, vr, pois, a)
			gvr, gpois := got.AttackClaim(&arena, vr, pois, a)
			if a != AttackNone {
				lies++
			}
			if gvr != wvr || !slices.Equal(gpois, wpois) || len(gpois) != cap(gpois) && a != AttackNone {
				t.Fatalf("%v trial %d: got %v %v, reference %v %v", a, trial, gvr, gpois, wvr, wpois)
			}
			if !slices.Equal(pois, orig) {
				t.Fatalf("%v trial %d: the input POIs were written", a, trial)
			}
			if a != AttackNone && len(gpois) > 0 && len(pois) > 0 && &gpois[0] == &pois[0] {
				t.Fatalf("%v trial %d: the lie aliases the input", a, trial)
			}
		}
		if got.lieSeq != ref.lieSeq || lies != ref.Counters.ByzantineLies || !sameStream(got, ref) {
			t.Fatalf("%v: lie sequence %d / %d, lies %d / %d, or the stream differ from the reference",
				a, got.lieSeq, ref.lieSeq, lies, ref.Counters.ByzantineLies)
		}
	}
}

// The injector gives the reference's fates, claims, delays and damage and
// leaves both streams where the reference leaves them, over random
// profiles: Bernoulli loss, truncation and corruption, churn, every
// attack, and fading chains up to DeepFadeLoss and beyond. Its returns,
// summed where the simulator sums them, equal the reference's Counters
// field by field, and every field moves somewhere in the run.
func TestInjectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rate := func(max float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64() * max
	}
	attacks := []Attack{AttackNone, AttackFabricate, AttackOmit, AttackInflate, AttackShift, AttackMix}
	var total refCounters
	for trial := 0; trial < 300; trial++ {
		p := Profile{RequestLoss: rate(0.5), ReplyLoss: rate(0.3), ReplyTruncate: rate(0.2),
			ReplyCorrupt: rate(0.2), ChurnRate: rate(0.5)}
		if rng.Intn(3) > 0 {
			p.BurstBadLoss = [...]float64{0.4, DeepFadeLoss, 1}[rng.Intn(3)]
			p.BurstBadSlots = rate(8)
			p.BurstGoodSlots = rate(40)
		}
		if a := attacks[rng.Intn(len(attacks))]; a != AttackNone {
			p.ByzantineRate, p.Attack = 0.5, a
		}
		seed := rng.Int63()
		got, ref := New(seed, p), newRefInjector(seed, p)
		var sum refCounters
		var arena broadcast.POIArena
		slot := int64(0)
		for step := 0; step < 400; step++ {
			switch rng.Intn(7) {
			case 0:
				slot += rng.Int63n(6)
				sum.BurstTransitions += got.Sync(slot)
				ref.Sync(slot)
			case 1:
				heard, faded := got.RequestHeard()
				if want := ref.RequestHeard(); heard != want {
					t.Fatalf("trial %d step %d: heard %v, reference %v", trial, step, heard, want)
				}
				if !heard {
					sum.RequestsUnheard++
				}
				if faded {
					sum.BurstLosses++
				}
			case 2:
				fate, faded := got.ReplyFate()
				if want := ref.ReplyFate(); fate != want {
					t.Fatalf("trial %d step %d: fate %v, reference %v", trial, step, fate, want)
				}
				if fate == FateDrop {
					sum.RepliesDropped++
				}
				if faded {
					sum.BurstLosses++
				}
				msg := make([]byte, rng.Intn(24))
				rng.Read(msg)
				want := refMangle(ref, msg, fate)
				if out := got.Mangle(slices.Clone(msg), fate); !bytes.Equal(out, want) {
					t.Fatalf("trial %d step %d: mangled %x, reference %x", trial, step, out, want)
				}
			case 3:
				if d := got.ChurnDeparts(); d != ref.ChurnDeparts() {
					t.Fatalf("trial %d step %d: departure diverged", trial, step)
				} else if d {
					sum.ChurnDepartures++
				}
			case 4:
				if r := got.ChurnReturns(); r != ref.ChurnReturns() {
					t.Fatalf("trial %d step %d: return diverged", trial, step)
				} else if r {
					sum.ChurnReturns++
				}
			case 5:
				if step%40 == 0 {
					arena.Rewind()
				}
				vr := geom.NewRect(0, 0, 1+rng.Float64()*4, 1+rng.Float64()*4)
				pois := []broadcast.POI{{ID: 1, Pos: geom.Pt(0.5, 0.5)}, {ID: 2, Pos: geom.Pt(9, 9)}}[:rng.Intn(3)]
				gvr, gpois := got.AttackClaim(&arena, vr, pois, p.Attack)
				if p.Attack != AttackNone {
					sum.ByzantineLies++
				}
				if wvr, wpois := refAttackClaim(ref, vr, pois, p.Attack); gvr != wvr || !slices.Equal(gpois, wpois) {
					t.Fatalf("trial %d step %d: claim %v %v, reference %v %v", trial, step, gvr, gpois, wvr, wpois)
				}
			case 6:
				n := rng.Int63n(20)
				if d, want := got.Jitter(n), ref.Jitter(n); d != want {
					t.Fatalf("trial %d step %d: jitter %d, reference %d", trial, step, d, want)
				}
			}
			bad := ref.ge != nil && ref.ge.bad
			if got.ChannelImpaired() != bad || got.DeepFade() != (bad && ref.ge.badLoss >= DeepFadeLoss) {
				t.Fatalf("trial %d step %d: chain state diverged from the reference", trial, step)
			}
		}
		if sum != ref.Counters || got.lieSeq != ref.lieSeq || !sameStream(got, ref) {
			t.Fatalf("trial %d (%+v): summed returns %+v, reference counters %+v, or the streams differ",
				trial, p, sum, ref.Counters)
		}
		total.RequestsUnheard += sum.RequestsUnheard
		total.RepliesDropped += sum.RepliesDropped
		total.ChurnDepartures += sum.ChurnDepartures
		total.ChurnReturns += sum.ChurnReturns
		total.ByzantineLies += sum.ByzantineLies
		total.BurstLosses += sum.BurstLosses
		total.BurstTransitions += sum.BurstTransitions
	}
	if total.RequestsUnheard == 0 || total.RepliesDropped == 0 || total.ChurnDepartures == 0 ||
		total.ChurnReturns == 0 || total.ByzantineLies == 0 || total.BurstLosses == 0 || total.BurstTransitions == 0 {
		t.Fatalf("a counter never moved over the run: %+v", total)
	}
}
