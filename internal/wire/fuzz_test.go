package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// fuzzSeeds returns a corpus of valid encodings plus systematic
// truncations and bit flips of them — the damage classes the
// fault-injection layer produces on the ad-hoc channel.
func fuzzSeeds(f *testing.F, encode func() []byte) {
	valid := encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x51, 0x5B})
	for _, cut := range []int{1, headerSize - 1, headerSize, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		b := append([]byte(nil), valid...)
		b[rng.Intn(len(b))] ^= byte(1) << rng.Intn(8)
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), valid...), 0x00))
}

// FuzzDecodeRequest: the request decoder must never panic, and whenever
// it accepts an input the parsed request must re-encode to a decodable
// message describing the same query.
func FuzzDecodeRequest(f *testing.F) {
	fuzzSeeds(f, func() []byte {
		return EncodeRequest(Request{
			QueryID:   7,
			Origin:    geom.Pt(3, 4),
			Relevance: geom.NewRect(0, 0, 8, 8),
			Hops:      2,
		})
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err != nil {
			return
		}
		// Accepted input: the round trip must be clean.
		re := EncodeRequest(req)
		got, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if got != req {
			t.Fatalf("round trip drifted: %+v -> %+v", req, got)
		}
	})
}

// FuzzInvalidationReport: the IR decoder must never panic; accepted
// frames must satisfy the version algebra (horizon ≤ epoch, items inside
// the window, deletes cell-less, insert/move cells of positive area) and
// re-encode byte-identically — the reconciler trusts decoded frames
// blindly, so everything it relies on must be enforced here.
func FuzzInvalidationReport(f *testing.F) {
	fuzzSeeds(f, func() []byte {
		r := InvalidationReport{
			Epoch:   5,
			Horizon: 3,
			Items: []IRItem{
				{Epoch: 3, Kind: IRInsert, ID: 41, Cell: geom.NewRect(0, 0, 1, 1)},
				{Epoch: 4, Kind: IRDelete, ID: 7},
				{Epoch: 5, Kind: IRMove, ID: 12, Cell: geom.NewRect(2, 2, 3, 3)},
			},
		}
		b, err := EncodeInvalidationReport(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		ir, err := DecodeInvalidationReport(b)
		if err != nil {
			return
		}
		if ir.Epoch < 0 || ir.Horizon < 0 || ir.Horizon > ir.Epoch {
			t.Fatalf("accepted invalid version window [%d, %d]", ir.Horizon, ir.Epoch)
		}
		if len(ir.Items) > MaxIRItems {
			t.Fatalf("accepted %d items above limit", len(ir.Items))
		}
		for i, it := range ir.Items {
			if it.Epoch < ir.Horizon || it.Epoch > ir.Epoch {
				t.Fatalf("item %d: epoch %d outside window [%d, %d]", i, it.Epoch, ir.Horizon, ir.Epoch)
			}
			switch it.Kind {
			case IRDelete:
				if it.Cell != (geom.Rect{}) {
					t.Fatalf("item %d: delete with cell accepted", i)
				}
			case IRInsert, IRMove:
				if !it.Cell.Valid() || it.Cell.Empty() {
					t.Fatalf("item %d: cell %v without area accepted", i, it.Cell)
				}
			default:
				t.Fatalf("item %d: unknown kind %d accepted", i, it.Kind)
			}
		}
		re, err := EncodeInvalidationReport(ir)
		if err != nil {
			t.Fatalf("re-encode of accepted IR failed: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted IR is not canonical: %d vs %d bytes", len(re), len(b))
		}
	})
}

// FuzzDecodeBusy: the backpressure decoder must never panic; accepted
// frames must carry a bounded retry-after hint and re-encode
// byte-identically — the resilient collector adjusts its retry schedule
// from decoded BUSY frames, so a hostile hint must not park it forever.
func FuzzDecodeBusy(f *testing.F) {
	fuzzSeeds(f, func() []byte {
		b, err := EncodeBusy(Busy{QueryID: 11, RetryAfter: 6})
		if err != nil {
			f.Fatal(err)
		}
		return b
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		busy, err := DecodeBusy(b)
		if err != nil {
			return
		}
		if busy.RetryAfter > MaxBusyRetryAfter {
			t.Fatalf("accepted retry-after %d above limit", busy.RetryAfter)
		}
		re, err := EncodeBusy(busy)
		if err != nil {
			t.Fatalf("re-encode of accepted busy failed: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted busy is not canonical: %d vs %d bytes", len(re), len(b))
		}
		got, err := DecodeBusy(re)
		if err != nil {
			t.Fatalf("re-decode of accepted busy failed: %v", err)
		}
		if got != busy {
			t.Fatalf("round trip drifted: %+v -> %+v", busy, got)
		}
	})
}

// FuzzDecodeReply: the reply decoder must never panic; accepted inputs
// must be structurally sound (valid rects, finite points, bounded counts)
// and survive an encode/decode round trip byte-identically.
func FuzzDecodeReply(f *testing.F) {
	fuzzSeeds(f, func() []byte {
		r := Reply{QueryID: 9}
		for i := 0; i < 3; i++ {
			reg := Region{Rect: geom.NewRect(float64(i), 0, float64(i)+1, 1)}
			for j := 0; j < 2; j++ {
				reg.POIs = append(reg.POIs, broadcast.POI{
					ID:  int64(10*i + j),
					Pos: geom.Pt(float64(i)+0.25, 0.5),
				})
			}
			r.Regions = append(r.Regions, reg)
		}
		b, err := EncodeReply(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReply(b)
		if err != nil {
			return
		}
		if len(rep.Regions) > MaxRegions {
			t.Fatalf("accepted %d regions above limit", len(rep.Regions))
		}
		for i, reg := range rep.Regions {
			if !reg.Rect.Valid() {
				t.Fatalf("region %d: invalid rect accepted", i)
			}
			if len(reg.POIs) > MaxPOIsPerRegion {
				t.Fatalf("region %d: %d POIs above limit", i, len(reg.POIs))
			}
		}
		re, err := EncodeReply(rep)
		if err != nil {
			t.Fatalf("re-encode of accepted reply failed: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted reply is not canonical: %d vs %d bytes", len(re), len(b))
		}
	})
}
