// Package wire defines the binary on-air message format for peer-to-peer
// cache sharing: the cache request a querying mobile host broadcasts to
// its neighbors and the reply carrying verified regions with their POIs.
// The encoding is little-endian with explicit lengths, rejects truncated
// or oversized input, carries a CRC32C integrity trailer so bit errors on
// the ad-hoc channel are detected rather than trusted, and exposes exact
// message sizes so the simulator can account for ad-hoc channel traffic
// in bytes.
//
// Layout (all integers little-endian; crc is CRC32C/Castagnoli over every
// preceding byte of the message):
//
//	Request  := magic(2) ver(1) kind(1)=1 queryID(8) origin(16)
//	            relevance(32) hops(1) crc(4)
//	Reply    := magic(2) ver(1) kind(1)=2 queryID(8) nRegions(2)
//	            Region* crc(4)
//	Region   := rect(32) nPOIs(4) POI*
//	POI      := id(8) pos(16)
//	IR       := magic(2) ver(1) kind(1)=3 epoch(8) horizon(8) nItems(2)
//	            IRItem* crc(4)
//	IRItem   := epoch(8) kind(1) id(8) cell(32)
//	Busy     := magic(2) ver(1) kind(1)=4 queryID(8) retryAfter(2) crc(4)
//
// The IR frame is the on-air invalidation report of the consistency
// layer (DESIGN.md §12): the base station piggybacks it on every (1, m)
// index segment so clients can reconcile cached verified regions against
// POI churn. Epoch is the current database version, Horizon the oldest
// epoch whose mutation items the frame still carries; a region older
// than Horizon-1 cannot be repaired from this frame and must be demoted.
//
// The Busy frame is the backpressure reply of the overload plane
// (DESIGN.md §16): a peer whose per-tick service queue is full answers a
// cache request with an explicit BUSY instead of going silent, so the
// querier can distinguish an overloaded neighbor from a broken one (a
// busy peer is not a breaker strike). RetryAfter is an advisory backoff
// hint in broadcast slots; zero means "no hint".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

const (
	magic   = 0x5B51 // "[Q"
	version = 1

	kindRequest      = 1
	kindReply        = 2
	kindInvalidation = 3
	kindBusy         = 4

	headerSize = 2 + 1 + 1 + 8 // magic, version, kind, queryID

	// TrailerSize is the CRC32C integrity trailer appended to every
	// message.
	TrailerSize = 4

	// MaxRegions bounds regions per reply (a reply larger than this is
	// malformed or hostile).
	MaxRegions = 1 << 12
	// MaxPOIsPerRegion bounds POIs per region.
	MaxPOIsPerRegion = 1 << 16
	// MaxIRItems bounds mutation items per invalidation report; a frame
	// that would exceed it must raise its horizon (drop oldest epochs)
	// instead.
	MaxIRItems = 1 << 12
)

// Invalidation-report item kinds.
const (
	// IRInsert announces a new POI at Cell.
	IRInsert IRKind = 1
	// IRDelete announces the removal of POI ID; Cell is zero.
	IRDelete IRKind = 2
	// IRMove announces POI ID relocated into Cell.
	IRMove IRKind = 3
)

// IRKind is the mutation class of one invalidation item.
type IRKind uint8

// IRItem is one POI mutation carried by an invalidation report. Epoch is
// the database version the mutation created, so a client holding a region
// stamped with epoch e applies exactly the items with Epoch > e.
type IRItem struct {
	Epoch int64
	Kind  IRKind
	ID    int64
	// Cell is the index cell now containing the POI (insert/move); the
	// report quantizes positions to Hilbert cells so clients shrink
	// around the cell, never learning exact positions off-air.
	Cell geom.Rect
}

// InvalidationReport is the versioned IR frame broadcast in the (1, m)
// index slots. Items carries every mutation with Epoch in
// (Horizon-1, Epoch]; a cached region older than Horizon-1 cannot be
// repaired from it.
type InvalidationReport struct {
	Epoch   int64
	Horizon int64
	Items   []IRItem
}

// Request is a cache request broadcast to single-hop neighbors.
type Request struct {
	// QueryID correlates replies with requests.
	QueryID uint64
	// Origin is the querying host's position.
	Origin geom.Point
	// Relevance restricts which cached regions are worth returning.
	Relevance geom.Rect
	// Hops is the remaining relay budget (multi-hop sharing).
	Hops uint8
}

// Region is one shared verified region.
type Region struct {
	Rect geom.Rect
	POIs []broadcast.POI
}

// Reply carries a peer's matching cache contents.
type Reply struct {
	QueryID uint64
	Regions []Region
}

// castagnoli is the CRC32C table; the Castagnoli polynomial detects all
// 1–3 bit errors and is what iSCSI/ext4 use for frame integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RequestSize is the fixed encoded size of a Request, trailer included.
const RequestSize = headerSize + 16 + 32 + 1 + TrailerSize

// ReplyOverhead is the fixed encoded size of a reply outside its regions:
// the header, the region count, and the CRC trailer.
const ReplyOverhead = headerSize + 2 + TrailerSize

// RegionWireSize returns the encoded size of one region carrying nPOIs.
func RegionWireSize(nPOIs int) int { return 32 + 4 + 24*nPOIs }

// ReplySize returns the exact encoded size of a reply with the given
// regions without encoding it — the simulator's byte accounting.
func ReplySize(regions []Region) int {
	n := ReplyOverhead
	for _, r := range regions {
		n += RegionWireSize(len(r.POIs))
	}
	return n
}

// EncodeRequest serializes a request.
func EncodeRequest(r Request) []byte {
	buf := make([]byte, 0, RequestSize)
	buf = appendHeader(buf, kindRequest, r.QueryID)
	buf = appendPoint(buf, r.Origin)
	buf = appendRect(buf, r.Relevance)
	buf = append(buf, r.Hops)
	return appendTrailer(buf)
}

// DecodeRequest parses a request.
func DecodeRequest(b []byte) (Request, error) {
	var out Request
	rest, queryID, err := parseHeader(b, kindRequest)
	if err != nil {
		return out, err
	}
	if len(rest) != 16+32+1 {
		return out, fmt.Errorf("wire: request payload %d bytes, want 49", len(rest))
	}
	out.QueryID = queryID
	out.Origin, rest = parsePoint(rest)
	out.Relevance, rest = parseRect(rest)
	out.Hops = rest[0]
	if err := validRect(out.Relevance); err != nil {
		return Request{}, err
	}
	if err := validPoint(out.Origin); err != nil {
		return Request{}, err
	}
	return out, nil
}

// EncodeReply serializes a reply.
func EncodeReply(r Reply) ([]byte, error) { return AppendReply(nil, r) }

// AppendReply appends the encoding of r to dst, growing it at most once;
// on error it returns dst as given.
func AppendReply(dst []byte, r Reply) ([]byte, error) {
	if len(r.Regions) > MaxRegions {
		return dst, fmt.Errorf("wire: %d regions exceeds limit %d", len(r.Regions), MaxRegions)
	}
	buf := slices.Grow(dst, ReplySize(r.Regions))
	buf = appendHeader(buf, kindReply, r.QueryID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Regions)))
	for _, reg := range r.Regions {
		if len(reg.POIs) > MaxPOIsPerRegion {
			return dst, fmt.Errorf("wire: %d POIs exceeds limit %d", len(reg.POIs), MaxPOIsPerRegion)
		}
		buf = appendRect(buf, reg.Rect)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reg.POIs)))
		for _, p := range reg.POIs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
			buf = appendPoint(buf, p.Pos)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(dst):], castagnoli)), nil
}

// DecodeReply parses a reply.
func DecodeReply(b []byte) (Reply, error) {
	var out Reply
	rest, queryID, err := parseHeader(b, kindReply)
	if err != nil {
		return out, err
	}
	out.QueryID = queryID
	if len(rest) < 2 {
		return out, fmt.Errorf("wire: reply truncated before region count")
	}
	n := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if n > MaxRegions {
		return out, fmt.Errorf("wire: region count %d exceeds limit", n)
	}
	out.Regions = make([]Region, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 32+4 {
			return Reply{}, fmt.Errorf("wire: reply truncated in region %d header", i)
		}
		var reg Region
		reg.Rect, rest = parseRect(rest)
		if err := validRect(reg.Rect); err != nil {
			return Reply{}, fmt.Errorf("wire: region %d: %w", i, err)
		}
		c := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if c > MaxPOIsPerRegion {
			return Reply{}, fmt.Errorf("wire: region %d POI count %d exceeds limit", i, c)
		}
		if len(rest) < 24*c {
			return Reply{}, fmt.Errorf("wire: reply truncated in region %d POIs", i)
		}
		reg.POIs = make([]broadcast.POI, c)
		for j := 0; j < c; j++ {
			reg.POIs[j].ID = int64(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
			reg.POIs[j].Pos, rest = parsePoint(rest)
			if err := validPoint(reg.POIs[j].Pos); err != nil {
				return Reply{}, fmt.Errorf("wire: region %d POI %d: %w", i, j, err)
			}
		}
		out.Regions = append(out.Regions, reg)
	}
	if len(rest) != 0 {
		return Reply{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return out, nil
}

// Busy is the explicit backpressure reply a peer sends when its service
// queue is full: the request was heard and is being refused, not lost.
// RetryAfter is an advisory backoff hint in broadcast slots (0 = none).
type Busy struct {
	QueryID    uint64
	RetryAfter uint16
}

// BusySize is the fixed encoded size of a Busy frame, trailer included.
const BusySize = headerSize + 2 + TrailerSize

// MaxBusyRetryAfter bounds the advisory backoff hint; a larger value is
// malformed or hostile (it would park a querier for longer than any
// deadline budget the simulator models).
const MaxBusyRetryAfter = 1 << 12

// EncodeBusy serializes a BUSY backpressure reply.
func EncodeBusy(b Busy) ([]byte, error) {
	if b.RetryAfter > MaxBusyRetryAfter {
		return nil, fmt.Errorf("wire: busy retry-after %d exceeds limit %d", b.RetryAfter, MaxBusyRetryAfter)
	}
	buf := make([]byte, 0, BusySize)
	buf = appendHeader(buf, kindBusy, b.QueryID)
	buf = binary.LittleEndian.AppendUint16(buf, b.RetryAfter)
	return appendTrailer(buf), nil
}

// DecodeBusy parses a BUSY backpressure reply.
func DecodeBusy(b []byte) (Busy, error) {
	var out Busy
	rest, queryID, err := parseHeader(b, kindBusy)
	if err != nil {
		return out, err
	}
	if len(rest) != 2 {
		return out, fmt.Errorf("wire: busy payload %d bytes, want 2", len(rest))
	}
	out.QueryID = queryID
	out.RetryAfter = binary.LittleEndian.Uint16(rest)
	if out.RetryAfter > MaxBusyRetryAfter {
		return Busy{}, fmt.Errorf("wire: busy retry-after %d exceeds limit %d", out.RetryAfter, MaxBusyRetryAfter)
	}
	return out, nil
}

// IROverhead is the fixed encoded size of an invalidation report outside
// its items: header (epoch rides the header's 8-byte id slot), horizon,
// item count, and the CRC trailer.
const IROverhead = headerSize + 8 + 2 + TrailerSize

// irItemSize is the encoded size of one IRItem: epoch, kind, id, cell.
const irItemSize = 8 + 1 + 8 + 32

// IRSize returns the exact encoded size of a report with nItems items.
func IRSize(nItems int) int { return IROverhead + irItemSize*nItems }

// EncodeInvalidationReport serializes an IR frame.
func EncodeInvalidationReport(r InvalidationReport) ([]byte, error) {
	if len(r.Items) > MaxIRItems {
		return nil, fmt.Errorf("wire: %d IR items exceeds limit %d", len(r.Items), MaxIRItems)
	}
	if err := validIRShape(r); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, IRSize(len(r.Items)))
	buf = appendHeader(buf, kindInvalidation, uint64(r.Epoch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Horizon))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Items)))
	for _, it := range r.Items {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Epoch))
		buf = append(buf, byte(it.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.ID))
		buf = appendRect(buf, it.Cell)
	}
	return appendTrailer(buf), nil
}

// DecodeInvalidationReport parses an IR frame. Beyond CRC integrity it
// enforces the version algebra a reconciler relies on: Horizon never
// ahead of Epoch, every item inside the [Horizon, Epoch] window, deletes
// cell-less, inserts and moves carrying a cell of positive area.
func DecodeInvalidationReport(b []byte) (InvalidationReport, error) {
	var out InvalidationReport
	rest, epoch, err := parseHeader(b, kindInvalidation)
	if err != nil {
		return out, err
	}
	out.Epoch = int64(epoch)
	if len(rest) < 8+2 {
		return out, fmt.Errorf("wire: IR truncated before item count")
	}
	out.Horizon = int64(binary.LittleEndian.Uint64(rest))
	n := int(binary.LittleEndian.Uint16(rest[8:]))
	rest = rest[10:]
	if n > MaxIRItems {
		return InvalidationReport{}, fmt.Errorf("wire: IR item count %d exceeds limit", n)
	}
	if len(rest) != irItemSize*n {
		return InvalidationReport{}, fmt.Errorf("wire: IR payload %d bytes, want %d", len(rest), irItemSize*n)
	}
	out.Items = make([]IRItem, n)
	for i := range out.Items {
		it := &out.Items[i]
		it.Epoch = int64(binary.LittleEndian.Uint64(rest))
		it.Kind = IRKind(rest[8])
		it.ID = int64(binary.LittleEndian.Uint64(rest[9:]))
		it.Cell, rest = parseRect(rest[17:])
	}
	if err := validIRShape(out); err != nil {
		return InvalidationReport{}, err
	}
	return out, nil
}

// validIRShape checks the semantic invariants shared by encode and
// decode, so every accepted frame round-trips canonically.
func validIRShape(r InvalidationReport) error {
	if r.Epoch < 0 || r.Horizon < 0 || r.Horizon > r.Epoch {
		return fmt.Errorf("wire: IR version window [%d, %d] invalid", r.Horizon, r.Epoch)
	}
	for i, it := range r.Items {
		if it.Epoch < r.Horizon || it.Epoch > r.Epoch {
			return fmt.Errorf("wire: IR item %d epoch %d outside [%d, %d]", i, it.Epoch, r.Horizon, r.Epoch)
		}
		if it.ID < 0 {
			return fmt.Errorf("wire: IR item %d negative id", i)
		}
		switch it.Kind {
		case IRDelete:
			if it.Cell != (geom.Rect{}) {
				return fmt.Errorf("wire: IR item %d delete carries a cell", i)
			}
		case IRInsert, IRMove:
			if err := validRect(it.Cell); err != nil {
				return fmt.Errorf("wire: IR item %d: %w", i, err)
			}
			if it.Cell.Empty() {
				// A cell of zero area cuts nothing out of a cached region,
				// so the POI it announces could sit in a surviving piece.
				return fmt.Errorf("wire: IR item %d cell %v has no area", i, it.Cell)
			}
		default:
			return fmt.Errorf("wire: IR item %d unknown kind %d", i, it.Kind)
		}
	}
	return nil
}

func appendHeader(buf []byte, kind byte, queryID uint64) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, magic)
	buf = append(buf, version, kind)
	return binary.LittleEndian.AppendUint64(buf, queryID)
}

// appendTrailer seals the message with a CRC32C over everything so far.
func appendTrailer(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// The frame-level rejections, as values: a lossy link makes thousands.
var (
	ErrShort   = errors.New("wire: message too short")
	ErrCRC     = errors.New("wire: CRC mismatch")
	ErrMagic   = errors.New("wire: bad magic")
	ErrVersion = errors.New("wire: unsupported version")
	ErrKind    = errors.New("wire: unexpected message kind")
)

// parseHeader validates the CRC trailer and the fixed header, returning
// the payload between them. Magic and version alone are not trusted: a
// bit-flipped message with an intact header is rejected here, before any
// structural parsing.
func parseHeader(b []byte, wantKind byte) ([]byte, uint64, error) {
	if len(b) < headerSize+TrailerSize {
		return nil, 0, ErrShort
	}
	body := b[:len(b)-TrailerSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-TrailerSize:]) {
		return nil, 0, ErrCRC
	}
	if binary.LittleEndian.Uint16(body) != magic {
		return nil, 0, ErrMagic
	}
	if body[2] != version {
		return nil, 0, ErrVersion
	}
	if body[3] != wantKind {
		return nil, 0, ErrKind
	}
	return body[headerSize:], binary.LittleEndian.Uint64(body[4:]), nil
}

func appendPoint(buf []byte, p geom.Point) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
}

func parsePoint(b []byte) (geom.Point, []byte) {
	x := math.Float64frombits(binary.LittleEndian.Uint64(b))
	y := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return geom.Pt(x, y), b[16:]
}

func appendRect(buf []byte, r geom.Rect) []byte {
	buf = appendPoint(buf, r.Min)
	return appendPoint(buf, r.Max)
}

func parseRect(b []byte) (geom.Rect, []byte) {
	min, b := parsePoint(b)
	max, b := parsePoint(b)
	return geom.Rect{Min: min, Max: max}, b
}

func validPoint(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("non-finite coordinate %v", p)
	}
	return nil
}

func validRect(r geom.Rect) error {
	if err := validPoint(r.Min); err != nil {
		return err
	}
	if err := validPoint(r.Max); err != nil {
		return err
	}
	if !r.Valid() {
		return fmt.Errorf("inverted rect %v", r)
	}
	return nil
}
