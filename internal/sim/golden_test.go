package sim

// Committed goldens (testdata/golden/*.json): the report row (wall clock
// zeroed, metrics snapshot embedded) and the trace stream's SHA-256 of a
// fixed set of small worlds, each run with SelfCheck, CompareBaseline
// and Metrics on, once. Every other identity test in this package
// compares the build against itself (run twice, zero-knob vs armed,
// metrics on vs off); the goldens compare it against the commit that
// generated them, so a behaviour-preserving refactor is proven by an
// empty diff and an intentional change is a reviewed golden diff.
//
//	make goldens    # go test ./internal/sim -run TestGolden -update
//
// The files are float-bit exact and therefore amd64-only: other
// architectures may fuse multiply-adds and move the last bit.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lbsq/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from this build (make goldens)")

// goldenFile is one world's committed observation.
type goldenFile struct {
	Report      json.RawMessage `json:"report"`
	TraceEvents int             `json:"trace_events"`
	TraceSHA256 string          `json:"trace_sha256"`
}

// goldenWorlds is the fixed world set. Names are file names; adding a
// world adds a file, changing one is a golden diff.
func goldenWorlds() map[string]Params {
	clean := func(kind QueryKind) Params {
		p := LACity().Scaled(1.5).WithDuration(0.1)
		p.Seed = 99
		p.TimeStepSec = 10
		p.Kind = kind
		p.AcceptApproximate = kind == KNNQuery
		return p
	}

	// Soak schedule 9 arms every layer at once: loss, damage, staleness,
	// churn, deadline, breakers, byzantine peers with audits, POI updates
	// with IR reconciliation (whole-discard ablation), blackouts, standing
	// subscriptions and the overload controls. The safe-region path
	// replaces its naive baseline so hits are pinned too. The kNN world
	// keeps its lossy broadcast channel; the window world pins the same
	// stack for window queries (SBWQ, standing windows) on a loss-free one.
	armedKNN := soakParams(9)
	armedKNN.ContinuousNaive = false
	armedWindow := armedKNN
	armedWindow.Kind = WindowQuery
	armedWindow.AcceptApproximate = false
	armedWindow.WindowDistMiles = 0.1
	armedWindow.Faults.BroadcastLoss = 0

	// Flash crowd under the full control stack (coalescing, admission,
	// BUSY backpressure, retry budget). On its lossy downlink a governor
	// floor of 1 engages at the first budget miss, so governor sheds are
	// pinned (TestGoldenGovernorEngages); the loss is above crowdParams'
	// 0.3, at which this seed's queries all answer in budget. On a
	// loss-free downlink nothing misses, so the governor never engages and
	// most of the hotspot coalesces.
	crowdLossy := withOverloadControls(crowdParams())
	crowdLossy.GovernorFloor = 1
	crowd := crowdLossy
	crowd.Faults.BroadcastLoss = 0
	crowdLossy.Faults.BroadcastLoss = 0.4

	// Every rung of the degraded-mode ladder, with standing queries
	// re-verifying on them; and the planner-less stall it replaces.
	ladder := clean(KNNQuery)
	ladder.Seed = 23
	ladder.Faults = burstProfile()
	ladder.Faults.BlackoutPeriodSec = 60
	ladder.Faults.BlackoutDurationSec = 20
	ladder.DegradedMode = true
	ladder.DeadlineSlots = 16
	ladder.PrefillQueriesPerHost = 5
	ladder.UseOwnCache = true
	ladder.ContinuousRate = 2
	stall := clean(WindowQuery)
	stall.Seed = 24
	stall.Faults = blackoutProfile()
	stall.DeadlineSlots = 16

	// Loss on both directions of the peer link plus reply damage, with the
	// deadline, breakers and churn all off: the retry policy alone.
	lossy := clean(KNNQuery)
	lossy.Faults = faults.Profile{RequestLoss: 0.1, ReplyLoss: 0.1, ReplyTruncate: 0.05, ReplyCorrupt: 0.05}

	// Byzantine peers under partial audits while POIs churn, window kind,
	// surgical repair (the armed worlds above run the IRDiscard ablation):
	// a lying claim reaches the screen as repair pieces. Until a piece
	// stopped being an audit unit (DESIGN.md §11.2) this seed died on the
	// self-check — an honest-looking piece vouched its byzantine peer and
	// the false sibling entered an exact SBWQ answer.
	byzUpdates := byzParams(901, WindowQuery, 0.1, 0.3, faults.AttackMix)
	byzUpdates.PrefillQueriesPerHost = 5
	byzUpdates.UseOwnCache = true
	byzUpdates.UpdateRate = 4
	byzUpdates.IRPeriodSec = 20
	byzUpdates.IRWindow = 4

	// The bench's knn_armed cell at golden scale: every shell layer armed
	// with surgical repair, so kNN queries merge receiver-side repair
	// pieces (the armed worlds above discard instead, and byz_updates_window
	// is a window world).
	armedRepair := clean(KNNQuery)
	armedRepair.PrefillQueriesPerHost = 3
	armedRepair.Faults = faults.Profile{RequestLoss: 0.1, ReplyLoss: 0.1,
		ReplyCorrupt: 0.05, MaxRetries: 4, ChurnRate: 0.1}
	armedRepair.DeadlineSlots = 16
	armedRepair.BreakerThreshold = 3
	armedRepair.BreakerCooldown = 8
	armedRepair.DegradedMode = true
	armedRepair.UpdateRate = 1
	armedRepair.UseOwnCache = true
	armedRepair.ContinuousRate = 0.5
	armedRepair.AuditRate = 0.1

	// The bench's -quick knn_sparse cell: rural densities, so most
	// queries fall to the channel (every world above answers most from
	// peers).
	sparse := RiversideCounty().Scaled(6).WithDuration(0.2)
	sparse.Seed = 99
	sparse.AcceptApproximate = true
	sparse.PrefillQueriesPerHost = 10

	// The bench's knn_byzantine cell at golden scale: few liars, few
	// audits, so most claims stay unvouched and a rectangle quarantine is
	// live throughout (byzantine above audits half its claims and barely
	// subtracts).
	outline := LACity().Scaled(2).WithDuration(0.1)
	outline.Seed = 99
	outline.AcceptApproximate = true
	outline.PrefillQueriesPerHost = 3
	outline.AuditRate = 0.1
	outline.Faults.ByzantineRate = 0.02
	outline.BreakerThreshold = 3

	// The zero-knob contract where the knobs are off but caches are not
	// empty: an own cache and a small warm start (staged, then owned),
	// every region copied into the cache on insert, and every shell layer
	// off. The consistency layer's epoch stamps every cached region, so an
	// epoch that moved with the layer off shows here.
	ownZero := clean(KNNQuery)
	ownZero.UseOwnCache = true
	ownZero.PrefillQueriesPerHost = 2

	return map[string]Params{
		"knn_zero":           clean(KNNQuery),
		"own_zero":           ownZero,
		"window_zero":        clean(WindowQuery),
		"lossy_knn":          lossy,
		"armed_knn":          armedKNN,
		"armed_window":       armedWindow,
		"crowd":              crowd,
		"crowd_lossy":        crowdLossy,
		"ladder":             ladder,
		"stall_window":       stall,
		"byzantine":          byzParams(901, KNNQuery, 0.3, 0.5, faults.AttackMix),
		"byz_updates_window": byzUpdates,
		"armed_repair_knn":   armedRepair,
		"sparse_knn":         sparse,
		"outline_knn":        outline,
	}
}

// goldenRun is one golden world's run with everything armed: what
// the golden file renders, and what the stats-vs-metrics and metrics
// on-vs-off tests read, so the three share one simulation per world.
type goldenRun struct {
	stats       Stats
	report, trc []byte
}

var goldenRuns = map[string]goldenRun{}

func goldenRunOf(t *testing.T, name string, p Params) goldenRun {
	t.Helper()
	r, ok := goldenRuns[name]
	if !ok {
		var w *World
		w, r.stats, r.report, r.trc = runArmedWorld(t, p)
		checkCachesBounded(t, w)
		goldenRuns[name] = r
	}
	return r
}

// checkCachesBounded asserts the cache invariant that lets the simulator
// flag the rows it reads from caches core.PeerData.Bounded: every region
// in every cache lists only POIs inside its rect.
func checkCachesBounded(t *testing.T, w *World) {
	t.Helper()
	for host := range w.caches {
		for _, r := range w.caches[host].Regions() {
			for _, p := range r.POIs {
				if !r.Rect.Contains(p.Pos) {
					t.Fatalf("host %d caches POI %d at %v outside its region %v", host, p.ID, p.Pos, r.Rect)
				}
			}
		}
	}
}

// goldenReportOf decodes the run's report row, as a consumer of
// the golden file would read it.
func goldenReportOf(t *testing.T, name string, p Params) Report {
	t.Helper()
	var rep Report
	if err := json.Unmarshal(goldenRunOf(t, name, p).report, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// goldenRender renders one run as its golden file.
func goldenRender(t *testing.T, rep, tr []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(tr)
	out, err := json.MarshalIndent(goldenFile{
		Report:      rep,
		TraceEvents: bytes.Count(tr, []byte("\n")),
		TraceSHA256: hex.EncodeToString(sum[:]),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenGovernorEngages keeps the two crowd goldens what they are
// there for, so a regeneration cannot silently lose the one byte-exact
// record of governor sheds: crowd_lossy's governor engages and sheds,
// crowd's never does.
func TestGoldenGovernorEngages(t *testing.T) {
	worlds := goldenWorlds()
	lossy := goldenRunOf(t, "crowd_lossy", worlds["crowd_lossy"]).stats
	if lossy.GovernorSheds == 0 || lossy.GovernorEngagedTicks == 0 {
		t.Errorf("crowd_lossy: governor sheds %d, engaged ticks %d; want both > 0",
			lossy.GovernorSheds, lossy.GovernorEngagedTicks)
	}
	if clean := goldenRunOf(t, "crowd", worlds["crowd"]).stats; clean.GovernorEngagedTicks != 0 {
		t.Errorf("crowd: governor engaged %d ticks on a loss-free downlink", clean.GovernorEngagedTicks)
	}
}

// firstDiffLine locates the first line two renderings disagree on.
func firstDiffLine(a, b []byte) (int, string, string) {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1, string(la[i]), string(lb[i])
		}
	}
	return min(len(la), len(lb)) + 1, "", ""
}

func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are float-bit exact; generated and checked on amd64 only")
	}
	for name, p := range goldenWorlds() {
		path := filepath.Join("testdata", "golden", name+".json")
		t.Run(name, func(t *testing.T) {
			run := goldenRunOf(t, name, p)
			got := goldenRender(t, run.report, run.trc)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make goldens`)", err)
			}
			if !bytes.Equal(got, want) {
				line, g, w := firstDiffLine(got, want)
				t.Errorf("diverged from %s at line %d:\n got: %s\nwant: %s", path, line, g, w)
			}
		})
	}
}
