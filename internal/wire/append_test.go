package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// refEncodeReply is EncodeReply's body before it appended into a caller's
// buffer, kept verbatim as the reference AppendReply is held to.
func refEncodeReply(r Reply) ([]byte, error) {
	if len(r.Regions) > MaxRegions {
		return nil, fmt.Errorf("wire: %d regions exceeds limit %d", len(r.Regions), MaxRegions)
	}
	buf := make([]byte, 0, ReplySize(r.Regions))
	buf = appendHeader(buf, kindReply, r.QueryID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Regions)))
	for _, reg := range r.Regions {
		if len(reg.POIs) > MaxPOIsPerRegion {
			return nil, fmt.Errorf("wire: %d POIs exceeds limit %d", len(reg.POIs), MaxPOIsPerRegion)
		}
		buf = appendRect(buf, reg.Rect)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reg.POIs)))
		for _, p := range reg.POIs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
			buf = appendPoint(buf, p.Pos)
		}
	}
	return appendTrailer(buf), nil
}

// AppendReply writes the reference's bytes after whatever dst holds, and
// leaves that prefix alone — with a dst too short and one with room to
// spare, after a prefix and at its start — and EncodeReply is the same
// bytes on a buffer of its own. An unencodable reply fails in both and
// leaves dst unextended.
func TestAppendReplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	scratch := make([]byte, 0, 64)
	for trial := 0; trial < 500; trial++ {
		r := sampleReply(rng, rng.Intn(6), rng.Intn(5))
		r.QueryID = rng.Uint64()
		want, err := refEncodeReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := EncodeReply(r); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: EncodeReply differs from the reference (%v)", trial, err)
		}
		prefix := make([]byte, rng.Intn(9))
		rng.Read(prefix)
		dst := append(scratch[:0], prefix...)
		got, err := AppendReply(dst, r)
		if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("trial %d: AppendReply after a %d-byte prefix differs from the reference (%v)", trial, len(prefix), err)
		}
		scratch = got
	}
	over := Reply{Regions: []Region{{Rect: geom.NewRect(0, 0, 1, 1), POIs: make([]broadcast.POI, MaxPOIsPerRegion+1)}}}
	for _, r := range []Reply{{Regions: make([]Region, MaxRegions+1)}, over} {
		dst := []byte{1, 2, 3}
		if _, wantErr := refEncodeReply(r); wantErr == nil {
			t.Fatal("the reference encoded an oversized reply")
		}
		got, err := AppendReply(dst, r)
		if err == nil || !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("oversized reply: got %d bytes, err %v; want the 3-byte prefix and an error", len(got), err)
		}
	}
}
