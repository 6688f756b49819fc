package trust

// Inspection hooks of the engine's state that only tests read.

// Vouched reports whether peer id is currently vouched with no standing
// strikes — the condition for its contributions to stay untainted. Safe
// on nil (never).
func (e *Engine) Vouched(id int) bool {
	return e != nil && (id == Self || id >= 0 && id < len(e.peers) && e.vouched(&e.peers[id]))
}

// QuarantinedRects returns the number of rectangles currently in the
// decaying quarantine set. Safe on nil.
func (e *Engine) QuarantinedRects() int {
	if e == nil {
		return 0
	}
	return len(e.quar) - e.quarHead
}
