package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbWriter hand-builds protobuf messages for the decoder tests.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// testProfile builds a CPU profile out of stacks of function names (leaf
// first). Each inner slice of a stack is one location; more than one name
// in it means inlining, innermost first. Every sample counts `count`
// signals of 4 ms.
func testProfile(t *testing.T, packed bool, count uint64, stacks ...[][]string) []byte {
	t.Helper()
	var prof pbWriter
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var nextLoc uint64
	for _, stack := range stacks {
		var locIDs []uint64
		for _, loc := range stack {
			nextLoc++
			var l pbWriter
			l.uint(1, nextLoc)
			l.uint(3, 0x1000+nextLoc) // address: skipped by the decoder
			for _, fn := range loc {
				if _, ok := funcID[fn]; !ok {
					funcID[fn] = uint64(len(funcID) + 1)
					var f pbWriter
					f.uint(1, funcID[fn])
					f.uint(2, intern(fn))
					f.uint(3, intern(fn))
					prof.bytes(5, f.b)
				}
				var line pbWriter
				line.uint(1, funcID[fn])
				line.uint(2, 42)
				l.bytes(4, line.b)
			}
			prof.bytes(4, l.b)
			locIDs = append(locIDs, nextLoc)
		}
		var s pbWriter
		if packed {
			s.packed(1, locIDs...)
			s.packed(2, count, count*4e6)
		} else {
			for _, id := range locIDs {
				s.uint(1, id)
			}
			s.uint(2, count)
			s.uint(2, count*4e6)
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(12, 4e6) // period
	return prof.b
}

func TestCPUAttribution(t *testing.T) {
	stacks := [][][]string{
		// A stdlib leaf called from geom, two inlined frames in one location.
		{{"math.archMax", "math.Max"}, {"lbsq/internal/geom.Rect.Intersect"}, {"lbsq/internal/sim.(*World).runKNNQuery"}, {"main.runPass"}},
		// The allocator under core: collector assists stay with the caller.
		{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {"lbsq/internal/core.SBNNScratchMVR"}, {"lbsq/internal/sim.(*World).Step"}},
		// A background collector goroutine.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker.func2"}, {"runtime.systemstack"}, {"runtime.gcBgMarkWorker"}},
		// No module frame and no collector root.
		{{"runtime.futex"}, {"runtime.mcall"}},
		// rtree is not a layer: the oracle's cost goes to its caller.
		{{"lbsq/internal/rtree.(*Tree).Window"}, {"lbsq/internal/sim.(*World).poisInRect"}, {"lbsq/internal/trust.(*Engine).Screen"}},
		// Generic instantiations keep their package.
		{{"slices.pdqsortCmpFunc[go.shape.struct { ID int64 }]"}, {"lbsq/internal/core.sortCandidates"}},
		// The harness itself.
		{{"time.Now"}, {"main.runPass"}, {"main.run"}},
	}
	want := map[string]float64{"geom": 8e6, "core": 16e6, "gc": 8e6, "other": 16e6, "sim": 8e6}

	raw := testProfile(t, true, 2, stacks...)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"gzipped": gz.Bytes(), "raw": raw, "unpacked": testProfile(t, false, 2, stacks...)} {
		prof, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(prof.samples) != len(stacks) {
			t.Fatalf("%s: %d samples, want %d", name, len(prof.samples), len(stacks))
		}
		if got := prof.samples[0].stack; len(got) != 5 || got[0] != "math.archMax" || got[1] != "math.Max" {
			t.Errorf("%s: first stack %v: inlined frames out of order", name, got)
		}
		got, under := map[string]float64{}, map[string]float64{}
		if signals := attributeCPU(prof, got, under); signals != int64(2*len(stacks)) {
			t.Errorf("%s: %d signals, want %d", name, signals, 2*len(stacks))
		}
		for layer, ns := range want {
			if got[layer] != ns {
				t.Errorf("%s: %s charged %v ns, want %v", name, layer, got[layer], ns)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: layers %v, want %v", name, got, want)
		}
		// Time under a layer includes its callees: sim is on three stacks,
		// trust on one that is charged to sim.
		if under["sim"] != 24e6 || under["trust"] != 8e6 || under["geom"] != 8e6 {
			t.Errorf("%s: time under layers %v", name, under)
		}
	}
}

func TestParseProfileRejectsDamage(t *testing.T) {
	raw := testProfile(t, true, 1, [][]string{{"lbsq/internal/geom.Pt"}})
	if _, err := parseProfile(raw[:len(raw)-3]); err == nil {
		t.Error("a truncated profile parsed")
	}
	var w pbWriter
	w.packed(1, 99) // a sample naming a location that does not exist
	var prof pbWriter
	prof.bytes(2, w.b)
	if _, err := parseProfile(prof.b); err == nil {
		t.Error("a sample with an unknown location parsed")
	}
}
