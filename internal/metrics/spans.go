package metrics

// Phase identifies one stage of the sharing-based query lifecycle — the
// span taxonomy every instrumented layer reports through. Costs are
// deterministic simulated quantities, never wall time:
//
//	p2p_collect    broadcast slots spent gathering peer replies (retry
//	               backoff; 0 when every peer answers the first request,
//	               whose exchange is modeled instantaneous)
//	mvr_merge      work units: peer verified regions merged into the MVR
//	nnv_verify     work units: candidate POIs pushed through Lemma 3.1/3.2
//	               verification
//	onair_tune     broadcast slots actively listened on the channel
//	onair_download broadcast slots from the query instant until the last
//	               required packet arrived (access latency)
type Phase uint8

const (
	// PhaseP2PCollect is the peer-collection stage (internal/p2p + the
	// sim collection loop).
	PhaseP2PCollect Phase = iota
	// PhaseMVRMerge is the verified-region merge (internal/core NNV/SBWQ).
	PhaseMVRMerge
	// PhaseNNVVerify is candidate verification (internal/core NNV).
	PhaseNNVVerify
	// PhaseOnAirTune is active channel listening (internal/broadcast).
	PhaseOnAirTune
	// PhaseOnAirDownload is channel access latency (internal/broadcast).
	PhaseOnAirDownload
	// NumPhases is the size of the taxonomy; valid phases are < NumPhases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"p2p_collect",
	"mvr_merge",
	"nnv_verify",
	"onair_tune",
	"onair_download",
}

var phaseUnits = [NumPhases]string{
	"slots",
	"work",
	"work",
	"slots",
	"slots",
}

// String returns the snake_case span name used in metric names and
// trace fields.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Unit returns the phase's cost unit ("slots" or "work").
func (p Phase) Unit() string {
	if p < NumPhases {
		return phaseUnits[p]
	}
	return ""
}

// QuerySpans accumulates one query's per-phase costs. It is a plain
// fixed-size value designed to live inside a reused per-world scratch:
// Reset/Add/Get never allocate.
type QuerySpans struct {
	cost [NumPhases]int64
}

// Reset zeroes every span for the next query.
func (s *QuerySpans) Reset() { s.cost = [NumPhases]int64{} }

// Add accumulates v cost units into phase p (out-of-range phases are
// ignored; negative costs are a caller bug and dropped).
func (s *QuerySpans) Add(p Phase, v int64) {
	if p < NumPhases && v > 0 {
		s.cost[p] += v
	}
}

// Get returns the accumulated cost of phase p.
func (s *QuerySpans) Get(p Phase) int64 {
	if p < NumPhases {
		return s.cost[p]
	}
	return 0
}

// PhaseSet bundles one registered histogram per query phase, so a whole
// QuerySpans record is observed with a single allocation-free call.
type PhaseSet struct {
	hist [NumPhases]*Histogram
}

// NewPhaseSet registers the five per-phase histograms under
// prefix_phase_<name>_<unit> (slot-valued phases get SlotBuckets,
// work-valued phases WorkBuckets) and returns the bundle.
func NewPhaseSet(r *Registry, prefix string) *PhaseSet {
	ps := &PhaseSet{}
	for p := Phase(0); p < NumPhases; p++ {
		bounds := SlotBuckets()
		if p.Unit() == "work" {
			bounds = WorkBuckets()
		}
		ps.hist[p] = r.Histogram(
			prefix+"_phase_"+p.String()+"_"+p.Unit(),
			"per-query cost of the "+p.String()+" span",
			p.Unit(), bounds)
	}
	return ps
}

// Observe records every phase of one query's span record.
func (ps *PhaseSet) Observe(s *QuerySpans) {
	for p := Phase(0); p < NumPhases; p++ {
		ps.hist[p].ObserveInt(s.cost[p])
	}
}

// Histogram returns the underlying histogram of one phase (nil for
// out-of-range phases).
func (ps *PhaseSet) Histogram(p Phase) *Histogram {
	if p < NumPhases {
		return ps.hist[p]
	}
	return nil
}
