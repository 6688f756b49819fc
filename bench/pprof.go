package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto): just the samples,
// locations, functions and string table, which is all CPU attribution
// needs.

// profile is a decoded CPU profile: each sample's stack as function names,
// leaf first, inlined callees before their callers.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, innermost first
	// values are the sample's values in sample_type order; a CPU profile
	// carries [samples/count, cpu/nanoseconds].
	values []int64
}

// count is how many profiling signals the sample aggregates (the first
// value), cpuNanos the CPU time they stand for (the last).
func (s profSample) count() int64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.values[0]
}

func (s profSample) cpuNanos() int64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

var errTruncated = errors.New("pprof: truncated message")

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either the varint value
// (wire type 0) or the length-delimited payload (wire type 2). Fixed-width
// fields are skipped over and reported with a nil payload.
func (r *pbReader) next() (field int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 5:
		err = r.skip(4)
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			break
		}
		if n > uint64(len(r.b)) {
			return 0, 0, nil, errTruncated
		}
		payload, r.b = r.b[:n], r.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

func (r *pbReader) skip(n int) error {
	if len(r.b) < n {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarints appends a repeated integer field's value(s): one value
// when unpacked (payload nil), or the whole packed run.
func repeatedVarints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type pbLocation struct {
	id    uint64
	funcs []uint64 // function ids of the location's lines, innermost first
}

type pbFunction struct {
	id   uint64
	name uint64 // string table index
}

// parseProfile decodes a gzipped (or raw) pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		data = raw
	}

	var (
		rawSamples [][]byte
		locs       = map[uint64]pbLocation{}
		funcs      = map[uint64]uint64{} // function id -> name index
		strs       []string
	)
	r := pbReader{data}
	for len(r.b) > 0 {
		field, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // sample
			rawSamples = append(rawSamples, payload)
		case 4: // location
			loc, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			locs[loc.id] = loc
		case 5: // function
			fn, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			funcs[fn.id] = fn.name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	p := &profile{}
	for _, raw := range rawSamples {
		var locIDs, values []uint64
		sr := pbReader{raw}
		for len(sr.b) > 0 {
			field, v, payload, err := sr.next()
			if err != nil {
				return nil, err
			}
			switch field {
			case 1:
				locIDs, err = repeatedVarints(locIDs, v, payload)
			case 2:
				values, err = repeatedVarints(values, v, payload)
			}
			if err != nil {
				return nil, err
			}
		}
		s := profSample{values: make([]int64, len(values))}
		for i, v := range values {
			s.values[i] = int64(v)
		}
		for _, id := range locIDs {
			loc, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("pprof: sample names unknown location %d", id)
			}
			for _, fid := range loc.funcs {
				idx, ok := funcs[fid]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: location %d names unknown function %d", id, fid)
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func parseLocation(b []byte) (pbLocation, error) {
	var loc pbLocation
	r := pbReader{b}
	for len(r.b) > 0 {
		field, v, payload, err := r.next()
		if err != nil {
			return loc, err
		}
		switch field {
		case 1:
			loc.id = v
		case 4: // line
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				lf, lv, _, err := lr.next()
				if err != nil {
					return loc, err
				}
				if lf == 1 {
					loc.funcs = append(loc.funcs, lv)
				}
			}
		}
	}
	return loc, nil
}

func parseFunction(b []byte) (pbFunction, error) {
	var fn pbFunction
	r := pbReader{b}
	for len(r.b) > 0 {
		field, v, _, err := r.next()
		if err != nil {
			return fn, err
		}
		switch field {
		case 1:
			fn.id = v
		case 2:
			fn.name = v
		}
	}
	return fn, nil
}

const modulePrefix = "lbsq/internal/"

// gcRoots are the entry points of the runtime's background collector
// goroutines; a stack with no module frame that starts in one is charged
// to "gc". Collector work done on an allocating goroutine (assists,
// sweeping inside mallocgc) stays with the layer that allocated.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf charges one sample to a layer: the innermost frame under
// lbsq/internal/<pkg> for a pkg in cpuLayers wins, so math, sort and
// mallocgc called from geom count as geom; internal packages that are
// not layers (rtree under the trust oracle or the self-check) are
// transparent and the walk continues to their caller. A stack with no
// such frame is "gc" when it belongs to a background collector goroutine
// and "other" otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	return "other"
}

// layersOn lists every layer with a frame anywhere on the stack.
func layersOn(stack []string) []string {
	var on []string
	for _, l := range cpuLayers {
		prefix := modulePrefix + l + "."
		for _, fn := range stack {
			if strings.HasPrefix(fn, prefix) {
				on = append(on, l)
				break
			}
		}
	}
	return on
}

// attributeCPU adds a profile's CPU nanoseconds to each layer — self
// charges each sample once, by layerOf; under charges it to every layer
// on its stack, so under[trust] includes the geometry trust calls — and
// returns how many profiling signals the profile held.
func attributeCPU(p *profile, self, under map[string]float64) (signals int64) {
	for _, s := range p.samples {
		ns := float64(s.cpuNanos())
		self[layerOf(s.stack)] += ns
		for _, l := range layersOn(s.stack) {
			under[l] += ns
		}
		signals += s.count()
	}
	return signals
}
