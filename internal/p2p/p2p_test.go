package p2p

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lbsq/internal/geom"
)

func mustNetwork(t *testing.T, area geom.Rect, cell float64) *Network {
	t.Helper()
	n, err := NewNetwork(area, cell)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(geom.Rect{}, 1); err == nil {
		t.Error("empty area must be rejected")
	}
	if _, err := NewNetwork(geom.NewRect(0, 0, 1, 1), 0); err == nil {
		t.Error("zero cell size must be rejected")
	}
	if _, err := NewNetwork(geom.NewRect(0, 0, 1, 1), -2); err == nil {
		t.Error("negative cell size must be rejected")
	}
	// NaN passes a plain `<= 0` check, after which every lookup found
	// nobody.
	if _, err := NewNetwork(geom.NewRect(0, 0, 1, 1), math.NaN()); err == nil {
		t.Error("NaN cell size must be rejected")
	}
	if _, err := NewNetwork(geom.NewRect(0, 0, 1, 1), math.Inf(1)); err == nil {
		t.Error("infinite cell size must be rejected")
	}
	if _, err := NewNetwork(geom.NewRect(0, 0, math.NaN(), 1), 1); err == nil {
		t.Error("NaN area must be rejected")
	}
	if _, err := NewNetwork(geom.NewRect(math.Inf(-1), 0, 1, 1), 1); err == nil {
		t.Error("infinite area must be rejected")
	}
}

func TestUpdateAndPosition(t *testing.T) {
	n := mustNetwork(t, geom.NewRect(0, 0, 10, 10), 1)
	n.Update(0, geom.Pt(5, 5))
	p, ok := n.Position(0)
	if !ok || p != geom.Pt(5, 5) {
		t.Fatalf("Position = %v, %v", p, ok)
	}
	if _, ok := n.Position(1); ok {
		t.Error("unregistered host must not be found")
	}
	if _, ok := n.Position(-1); ok {
		t.Error("negative id must not be found")
	}
	n.Update(0, geom.Pt(9, 9))
	p, _ = n.Position(0)
	if p != geom.Pt(9, 9) {
		t.Fatalf("moved Position = %v", p)
	}
}

func TestNeighborsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	area := geom.NewRect(0, 0, 100, 100)
	n := mustNetwork(t, area, 7)
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		n.Update(i, pts[i])
	}
	for trial := 0; trial < 60; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		radius := rng.Float64() * 25
		exclude := rng.Intn(len(pts))
		got := n.Neighbors(q, radius, exclude)
		var want []int
		for i, p := range pts {
			if i != exclude && p.Dist(q) <= radius {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d neighbors", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: neighbor mismatch", trial)
			}
		}
	}
}

// bruteNeighbors is the lookup contract written as a scan: every
// registered host other than exclude whose squared distance to q is at
// most radius², in ascending ID order.
func bruteNeighbors(pts map[int]geom.Point, q geom.Point, radius float64, exclude int) []int {
	var want []int
	if radius <= 0 {
		return want
	}
	for id, p := range pts {
		if id != exclude && p.DistSq(q) <= radius*radius {
			want = append(want, id)
		}
	}
	sort.Ints(want)
	return want
}

// TestNeighborsAscendingAndComplete: after random registrations and
// moves, every lookup returns exactly the brute-force set, in ascending
// ID order — whatever history put the hosts where they are.
func TestNeighborsAscendingAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := mustNetwork(t, geom.NewRect(0, 0, 40, 40), 3)
	pts := map[int]geom.Point{}
	for op := 0; op < 4000; op++ {
		id := rng.Intn(150)
		// A few hosts stray outside the area, into the border cells.
		p := geom.Pt(rng.Float64()*44-2, rng.Float64()*44-2)
		n.Update(id, p)
		pts[id] = p
		if op%10 != 0 {
			continue
		}
		q := geom.Pt(rng.Float64()*40, rng.Float64()*40)
		radius := rng.Float64() * 10
		exclude := rng.Intn(151) - 1
		got := n.Neighbors(q, radius, exclude)
		want := bruteNeighbors(pts, q, radius, exclude)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: Neighbors(%v, %v, %d) = %v, want %v", op, q, radius, exclude, got, want)
		}
	}
}

func TestNeighborsAfterMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	area := geom.NewRect(0, 0, 50, 50)
	n := mustNetwork(t, area, 5)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		n.Update(i, pts[i])
	}
	// Move everyone several times, then validate against brute force.
	for round := 0; round < 5; round++ {
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
			n.Update(i, pts[i])
		}
	}
	q := geom.Pt(25, 25)
	got := n.Neighbors(q, 10, -1)
	want := 0
	for _, p := range pts {
		if p.Dist(q) <= 10 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("after movement: got %d want %d", len(got), want)
	}
}

func TestNeighborsZeroRadius(t *testing.T) {
	n := mustNetwork(t, geom.NewRect(0, 0, 10, 10), 1)
	n.Update(0, geom.Pt(5, 5))
	if got := n.Neighbors(geom.Pt(5, 5), 0, -1); got != nil {
		t.Fatalf("zero radius = %v", got)
	}
}

func TestNeighborsOutOfAreaQuery(t *testing.T) {
	n := mustNetwork(t, geom.NewRect(0, 0, 10, 10), 1)
	n.Update(0, geom.Pt(0.5, 0.5))
	// Query point outside the area but radius reaching in.
	got := n.Neighbors(geom.Pt(-1, -1), 3, -1)
	if len(got) != 1 {
		t.Fatalf("out-of-area query = %v", got)
	}
}

func TestHostsOutsideAreaClamp(t *testing.T) {
	n := mustNetwork(t, geom.NewRect(0, 0, 10, 10), 2)
	// Mobility models may momentarily produce out-of-area positions; the
	// index clamps them into border cells and still finds them.
	n.Update(0, geom.Pt(12, 12))
	got := n.Neighbors(geom.Pt(9.5, 9.5), 4, -1)
	if len(got) != 1 {
		t.Fatalf("clamped host not found: %v", got)
	}
}

func TestNeighborsMultiHop(t *testing.T) {
	n := mustNetwork(t, geom.NewRect(0, 0, 20, 20), 1)
	// A chain of hosts 0.9 apart; radius 1 reaches exactly one link.
	for i := 0; i < 6; i++ {
		n.Update(i, geom.Pt(float64(i)*0.9, 0))
	}
	q := geom.Pt(0, 0)
	oneHop := n.AppendNeighborsMultiHop(nil, q, 1, 1, 0)
	if len(oneHop) != 1 || oneHop[0] != 1 {
		t.Fatalf("1 hop = %v", oneHop)
	}
	twoHop := n.AppendNeighborsMultiHop(nil, q, 1, 2, 0)
	if len(twoHop) != 2 {
		t.Fatalf("2 hops = %v", twoHop)
	}
	fiveHop := n.AppendNeighborsMultiHop(nil, q, 1, 5, 0)
	if len(fiveHop) != 5 {
		t.Fatalf("5 hops = %v (whole chain minus self)", fiveHop)
	}
	// Hops beyond the chain length saturate.
	tenHop := n.AppendNeighborsMultiHop(nil, q, 1, 10, 0)
	if len(tenHop) != 5 {
		t.Fatalf("10 hops = %v", tenHop)
	}
	// hops<=1 equals AppendNeighbors.
	if got := n.AppendNeighborsMultiHop(nil, q, 1, 0, 0); len(got) != 1 {
		t.Fatalf("0 hops = %v", got)
	}
}

func TestNeighborsMultiHopNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := mustNetwork(t, geom.NewRect(0, 0, 10, 10), 1)
	for i := 0; i < 200; i++ {
		n.Update(i, geom.Pt(rng.Float64()*10, rng.Float64()*10))
	}
	got := n.AppendNeighborsMultiHop(nil, geom.Pt(5, 5), 1.2, 3, 7)
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		if id == 7 {
			t.Fatal("excluded id returned")
		}
		seen[id] = true
	}
	// Multi-hop is a superset of single-hop.
	for _, id := range n.Neighbors(geom.Pt(5, 5), 1.2, 7) {
		if !seen[id] {
			t.Fatalf("single-hop neighbor %d missing from multi-hop", id)
		}
	}
}
