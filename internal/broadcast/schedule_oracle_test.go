package broadcast

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"lbsq/internal/geom"
	"lbsq/internal/hilbert"
)

// refPackets is NewSchedule's packing before the packets shared one
// backing array — a slice per cell, appended into its packet — kept
// verbatim as the reference the packing is held to.
func refPackets(pois []POI, cfg Config, curve *hilbert.Curve) []Packet {
	key := cellKeyFunc(cfg.Ordering, curve)
	type keyed struct {
		d    int64
		x, y int
		poi  POI
	}
	ks := make([]keyed, len(pois))
	for i, p := range pois {
		cx, cy := curve.CellOf(p.Pos)
		ks[i] = keyed{d: key(cx, cy), x: cx, y: cy, poi: p}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].d != ks[j].d {
			return ks[i].d < ks[j].d
		}
		return ks[i].poi.ID < ks[j].poi.ID
	})

	var packets []Packet
	i := 0
	for i < len(ks) {
		// Collect the run of POIs sharing the next cell.
		j := i + 1
		for j < len(ks) && ks[j].d == ks[i].d {
			j++
		}
		cellPOIs := make([]POI, 0, j-i)
		for _, e := range ks[i:j] {
			cellPOIs = append(cellPOIs, e.poi)
		}
		cellValue := ks[i].d
		cellRect := curve.CellRect(ks[i].x, ks[i].y)

		if n := len(packets); n > 0 &&
			len(packets[n-1].POIs)+len(cellPOIs) <= cfg.PacketCapacity {
			p := &packets[n-1]
			p.Last = cellValue
			p.Region = p.Region.Union(cellRect)
			p.POIs = append(p.POIs, cellPOIs...)
		} else {
			packets = append(packets, Packet{
				Seq:    len(packets),
				First:  cellValue,
				Last:   cellValue,
				Region: cellRect,
				POIs:   cellPOIs,
			})
		}
		i = j
	}
	return packets
}

// NewSchedule's packets equal the reference's — sequence, cell range,
// region bits and every POI in order — on every ordering and at packet
// capacities from 1 to 9, over fields with empty cells, cells denser than
// a packet and POIs at the area's corners; and they are disjoint runs of
// one array in packet order, each capped at its own length.
func TestSchedulePacketsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	area := geom.NewRect(0, 0, 16, 16)
	for trial := 0; trial < 300; trial++ {
		cfg := Config{Area: area, Order: 1 + rng.Intn(4), Ordering: Ordering(rng.Intn(3)),
			PacketCapacity: 1 + rng.Intn(9), M: 1 + rng.Intn(4)}
		pois := make([]POI, rng.Intn(120))
		for i := range pois {
			p := geom.Pt(rng.Float64()*16, rng.Float64()*16)
			switch rng.Intn(6) {
			case 0:
				p = geom.Pt(1+rng.Float64()/4, 1+rng.Float64()/4) // one dense cell
			case 1:
				p = geom.Pt(float64(rng.Intn(2))*16, float64(rng.Intn(2))*16) // a corner
			}
			pois[i] = POI{ID: int64(rng.Intn(1 << 20)), Pos: p}
		}
		s, err := NewSchedule(pois, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.applyDefaults()
		want := refPackets(pois, cfg, s.curve)
		if len(s.packets) != len(want) {
			t.Fatalf("trial %d: %d packets, reference %d", trial, len(s.packets), len(want))
		}
		next := 0
		for k, p := range s.packets {
			w := want[k]
			if p.Seq != w.Seq || p.First != w.First || p.Last != w.Last || p.Region != w.Region || !slices.Equal(p.POIs, w.POIs) {
				t.Fatalf("trial %d packet %d: %+v, reference %+v", trial, k, p, w)
			}
			if cap(p.POIs) != len(p.POIs) {
				t.Fatalf("trial %d packet %d: capacity %d past its %d POIs", trial, k, cap(p.POIs), len(p.POIs))
			}
			if k > 0 {
				prev := s.packets[k-1].POIs
				end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*unsafe.Sizeof(POI{}))
				if end != unsafe.Pointer(unsafe.SliceData(p.POIs)) {
					t.Fatalf("trial %d packet %d does not follow packet %d in the array", trial, k, k-1)
				}
			}
			next += len(p.POIs)
		}
		if next != len(pois) {
			t.Fatalf("trial %d: packets hold %d POIs of %d", trial, next, len(pois))
		}
	}
}
