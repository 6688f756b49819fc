//go:build !race

// Allocation gates of the codec (skipped under the race detector, whose
// instrumentation skews AllocsPerRun).

package wire

import (
	"math/rand"
	"testing"
)

// A reply appended into a buffer that already has room allocates nothing:
// the damaged-reply path encodes every frame into one reused buffer.
func TestAppendReplyAllocs(t *testing.T) {
	r := sampleReply(rand.New(rand.NewSource(3)), 6, 9)
	buf, err := AppendReply(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendReply(buf[:0], r) }); allocs != 0 {
		t.Fatalf("AppendReply allocated %v times per warm call", allocs)
	}
}
