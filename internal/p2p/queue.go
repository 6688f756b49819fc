package p2p

// Peer-side backpressure: a bounded per-peer service queue (DESIGN.md
// §16). A mobile host answering cache requests has finite service
// capacity per tick — CPU for the cache scan plus channel slots for the
// reply. Under a flash crowd thousands of co-located queriers hit the
// same few peers; without a bound each peer would "serve" unbounded
// work, which is exactly the metastable-collapse input. The queue gives
// every peer an explicit admission decision:
//
//   - the first Cap requests in a tick are served normally;
//   - the next busyBandFactor×Cap are refused with an explicit BUSY
//     frame on the wire (wire.Busy) — cheap, CRC-protected, and telling
//     the querier "overloaded, not broken";
//   - anything beyond that is dropped silently: a peer saturated past
//     the busy band cannot spend slots even on refusals.
//
// The queue is per-tick state: Reset clears it at every tick boundary,
// so capacity is a rate (requests per peer per tick), not a lifetime
// total. All decisions are deterministic functions of arrival order —
// no randomness — so armed runs stay reproducible (admission happens in
// the simulator's prepare stage, one query at a time).

// ServiceVerdict classifies one admission decision of a peer's bounded
// service queue.
type ServiceVerdict int

const (
	// ServeOK: the request was admitted and the peer answers normally.
	ServeOK ServiceVerdict = iota
	// ServeBusy: the queue is full; the peer sends an explicit BUSY
	// backpressure frame instead of a data reply.
	ServeBusy
	// ServeDrop: the peer is saturated past the busy band and sheds the
	// request silently.
	ServeDrop
)

// busyBandFactor sizes the refusal band: a peer sends BUSY frames for up
// to busyBandFactor×Cap requests beyond its service capacity before it
// stops responding entirely.
const busyBandFactor = 3

// ServiceQueue tracks per-peer admitted work within one tick.
type ServiceQueue struct {
	// Cap is the per-peer service capacity in requests per tick.
	Cap  int
	load map[int]int
}

// NewServiceQueue creates a queue with the given per-peer per-tick
// capacity. Capacity must be positive; the zero-knob path never
// constructs a queue at all.
func NewServiceQueue(capacity int) *ServiceQueue {
	return &ServiceQueue{Cap: capacity, load: make(map[int]int)}
}

// Reset clears all per-peer load at a tick boundary.
func (q *ServiceQueue) Reset() {
	clear(q.load)
}

// Admit records one request arriving at the given peer and returns the
// peer's admission decision for it.
func (q *ServiceQueue) Admit(peer int) ServiceVerdict {
	n := q.load[peer]
	q.load[peer] = n + 1
	switch {
	case n < q.Cap:
		return ServeOK
	case n < q.Cap*(1+busyBandFactor):
		return ServeBusy
	default:
		return ServeDrop
	}
}
