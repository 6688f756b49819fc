package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

func sampleRequest() Request {
	return Request{
		QueryID:   42,
		Origin:    geom.Pt(10.5, -3.25),
		Relevance: geom.NewRect(1, 2, 3, 4),
		Hops:      2,
	}
}

func sampleReply(rng *rand.Rand, nRegions, poisPer int) Reply {
	r := Reply{QueryID: 77}
	for i := 0; i < nRegions; i++ {
		cx, cy := rng.Float64()*20, rng.Float64()*20
		reg := Region{Rect: geom.NewRect(cx, cy, cx+1, cy+1)}
		for j := 0; j < poisPer; j++ {
			reg.POIs = append(reg.POIs, broadcast.POI{
				ID:  rng.Int63(),
				Pos: geom.Pt(cx+rng.Float64(), cy+rng.Float64()),
			})
		}
		r.Regions = append(r.Regions, reg)
	}
	return r
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	b := EncodeRequest(req)
	if len(b) != RequestSize {
		t.Fatalf("encoded size %d want %d", len(b), RequestSize)
	}
	got, err := DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {1, 5}, {7, 3}, {20, 11}} {
		r := sampleReply(rng, shape[0], shape[1])
		b, err := EncodeReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != ReplySize(r.Regions) {
			t.Fatalf("shape %v: size %d want %d", shape, len(b), ReplySize(r.Regions))
		}
		got, err := DecodeReply(b)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if got.QueryID != r.QueryID || len(got.Regions) != len(r.Regions) {
			t.Fatalf("shape %v: structure mismatch", shape)
		}
		for i := range r.Regions {
			if got.Regions[i].Rect != r.Regions[i].Rect {
				t.Fatalf("region %d rect mismatch", i)
			}
			if len(got.Regions[i].POIs) != len(r.Regions[i].POIs) {
				t.Fatalf("region %d POI count mismatch", i)
			}
			for j := range r.Regions[i].POIs {
				if got.Regions[i].POIs[j] != r.Regions[i].POIs[j] {
					t.Fatalf("region %d POI %d mismatch", i, j)
				}
			}
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := sampleReply(rng, 3, 4)
	b, err := EncodeReply(r)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeReply(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	req := EncodeRequest(sampleRequest())
	for cut := 0; cut < len(req); cut++ {
		if _, err := DecodeRequest(req[:cut]); err == nil {
			t.Fatalf("request truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, err := EncodeReply(sampleReply(rng, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReply(append(b, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	good := EncodeRequest(sampleRequest())
	body := len(good) - TrailerSize
	for _, c := range []struct {
		name   string
		at     int
		val    byte
		reseal bool
		want   error
	}{
		{"damaged magic", 0, good[0] ^ 0xFF, false, ErrCRC},
		{"bad magic", 0, good[0] ^ 0xFF, true, ErrMagic},
		{"bad version", 2, 99, true, ErrVersion},
		{"wrong kind", 3, kindReply, true, ErrKind},
	} {
		bad := append([]byte(nil), good...)
		bad[c.at] = c.val
		if c.reseal {
			bad = appendTrailer(bad[:body])
		}
		if _, err := DecodeRequest(bad); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := DecodeRequest(good[:headerSize]); !errors.Is(err, ErrShort) {
		t.Fatalf("short frame: err = %v, want %v", err, ErrShort)
	}
}

func TestDecodeRejectsNonFinite(t *testing.T) {
	req := sampleRequest()
	req.Origin = geom.Pt(math.NaN(), 0)
	b := EncodeRequest(req)
	if _, err := DecodeRequest(b); err == nil {
		t.Fatal("NaN origin accepted")
	}
	req = sampleRequest()
	req.Relevance = geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(1, 1)}
	b = EncodeRequest(req)
	if _, err := DecodeRequest(b); err == nil {
		t.Fatal("inverted rect accepted")
	}
}

// segmentCellFrame is a checksummed IR frame whose one insert announces a
// cell of zero width, which the encoder refuses to write.
func segmentCellFrame(t *testing.T) []byte {
	t.Helper()
	b, err := EncodeInvalidationReport(InvalidationReport{Epoch: 5, Horizon: 3,
		Items: []IRItem{{Epoch: 4, Kind: IRInsert, ID: 41, Cell: geom.NewRect(2, 2, 3, 3)}}})
	if err != nil {
		t.Fatal(err)
	}
	// Header, horizon and item count, then the item's epoch, kind, id and
	// cell minimum: what follows is the cell's Max.X.
	maxX := headerSize + 10 + 17 + 16
	binary.LittleEndian.PutUint64(b[maxX:], math.Float64bits(2))
	return appendTrailer(b[:len(b)-4])
}

// An insert or move announces the index cell its POI now lies in, and a
// repair cuts that cell out of a cached region. A cell of zero area cuts
// nothing, so both ends of the codec refuse one: a segment, a point.
func TestInvalidationReportRejectsCellWithoutArea(t *testing.T) {
	for _, cell := range []geom.Rect{geom.NewRect(2, 2, 2, 3), geom.NewRect(2, 2, 3, 2), geom.NewRect(2, 2, 2, 2)} {
		for _, kind := range []IRKind{IRInsert, IRMove} {
			r := InvalidationReport{Epoch: 5, Horizon: 3, Items: []IRItem{{Epoch: 4, Kind: kind, ID: 41, Cell: cell}}}
			if _, err := EncodeInvalidationReport(r); err == nil {
				t.Errorf("kind %d cell %v encoded", kind, cell)
			}
		}
	}
	if _, err := DecodeInvalidationReport(segmentCellFrame(t)); err == nil || !strings.Contains(err.Error(), "no area") {
		t.Fatalf("frame with a segment cell decoded as %v", err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	r := Reply{Regions: make([]Region, MaxRegions+1)}
	if _, err := EncodeReply(r); err == nil {
		t.Fatal("oversized region count accepted")
	}
	r = Reply{Regions: []Region{{
		Rect: geom.NewRect(0, 0, 1, 1),
		POIs: make([]broadcast.POI, MaxPOIsPerRegion+1),
	}}}
	if _, err := EncodeReply(r); err == nil {
		t.Fatal("oversized POI count accepted")
	}
}

// Property: encode∘decode is the identity over random replies.
func TestQuickReplyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := sampleReply(rng, rng.Intn(8), rng.Intn(6))
		b, err := EncodeReply(r)
		if err != nil {
			return false
		}
		got, err := DecodeReply(b)
		if err != nil {
			return false
		}
		if got.QueryID != r.QueryID || len(got.Regions) != len(r.Regions) {
			return false
		}
		for i := range r.Regions {
			if got.Regions[i].Rect != r.Regions[i].Rect ||
				len(got.Regions[i].POIs) != len(r.Regions[i].POIs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random byte flips never panic the decoder and are usually
// rejected.
func TestQuickCorruptionSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig, err := EncodeReply(sampleReply(rng, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		b := append([]byte(nil), orig...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		// Must not panic; errors are fine, silent misparse of structure
		// is acceptable only if the result is structurally valid.
		got, err := DecodeReply(b)
		if err != nil {
			continue
		}
		for _, reg := range got.Regions {
			if !reg.Rect.Valid() {
				t.Fatal("decoder returned invalid rect")
			}
		}
	}
}

func TestReplySizeFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		r := sampleReply(rng, rng.Intn(10), rng.Intn(10))
		b, err := EncodeReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != ReplySize(r.Regions) {
			t.Fatalf("trial %d: size %d formula %d", trial, len(b), ReplySize(r.Regions))
		}
	}
}

// TestCRCRejectsEveryBitFlip: the CRC32C trailer must reject any
// single-bit corruption of an otherwise valid frame — the exact damage
// class the fault injector's corrupt fate produces.
func TestCRCRejectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rep, err := EncodeReply(sampleReply(rng, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	req := EncodeRequest(sampleRequest())
	for name, frame := range map[string][]byte{"reply": rep, "request": req} {
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				b := append([]byte(nil), frame...)
				b[i] ^= 1 << bit
				var derr error
				if name == "reply" {
					_, derr = DecodeReply(b)
				} else {
					_, derr = DecodeRequest(b)
				}
				if derr == nil {
					t.Fatalf("%s: flip of byte %d bit %d accepted", name, i, bit)
				}
			}
		}
	}
}
