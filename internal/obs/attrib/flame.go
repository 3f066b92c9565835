package attrib

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// Flame-graph exports. Both formats render the same data: the collector's
// folded map (frame path -> total exclusive virtual nanoseconds).
//
//   - WriteFolded emits Brendan Gregg's collapsed-stack format, one
//     "frame;frame;frame weight" line per stack, ready for flamegraph.pl or
//     speedscope.
//   - WritePprof emits a gzipped pprof profile (the profile.proto wire
//     format, hand-encoded — no dependency), ready for `go tool pprof`.
//
// Output is byte-deterministic: stacks are sorted lexicographically and all
// weights are virtual-time nanoseconds.

// WriteFolded writes the report's flame graph in collapsed-stack form.
func (r *Report) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range slices.Sorted(maps.Keys(r.Folded)) {
		if _, err := fmt.Fprintf(bw, "%s %d\n", s, r.Folded[s]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// protobuf wire-format helpers (proto3, fields we need only).
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag emits a field key: number<<3 | wire type (0 = varint, 2 = bytes).
func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *protoBuf) uint(field int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) str(field int, s string) {
	p.tag(field, 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packed emits a packed repeated varint field.
func (p *protoBuf) packed(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var inner protoBuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// WritePprof writes the report's flame graph as a gzipped pprof profile.
//
// profile.proto layout used (field numbers from the pprof spec):
//
//	Profile:  sample_type=1, sample=2, location=4, function=5,
//	          string_table=6, duration_nanos=10, period_type=11, period=12
//	ValueType: type=1, unit=2 (string-table indices)
//	Sample:    location_id=1 (packed, leaf first), value=2 (packed)
//	Location:  id=1, line=4
//	Line:      function_id=1
//	Function:  id=1, name=2, system_name=3
func (r *Report) WritePprof(w io.Writer) error {
	stacks := slices.Sorted(maps.Keys(r.Folded))

	// String table: index 0 must be "".
	strIdx := map[string]uint64{"": 0}
	table := []string{""}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(table))
		strIdx[s] = i
		table = append(table, s)
		return i
	}
	// One function + one location per distinct frame name; location id ==
	// function id == first-seen order (1-based; 0 is reserved).
	locIdx := map[string]uint64{}
	var frames []string
	locOf := func(name string) uint64 {
		if i, ok := locIdx[name]; ok {
			return i
		}
		i := uint64(len(frames) + 1)
		locIdx[name] = i
		frames = append(frames, name)
		return i
	}

	var samples []protoBuf
	var total int64
	for _, s := range stacks {
		parts := strings.Split(s, ";")
		// pprof wants leaf first.
		locs := make([]uint64, 0, len(parts))
		for i := len(parts) - 1; i >= 0; i-- {
			locs = append(locs, locOf(parts[i]))
		}
		var sm protoBuf
		sm.packed(1, locs)
		sm.packed(2, []uint64{uint64(r.Folded[s])})
		samples = append(samples, sm)
		total += r.Folded[s]
	}

	var prof protoBuf
	// sample_type: {type: "virtual", unit: "nanoseconds"}
	var vt protoBuf
	vt.uint(1, intern("virtual"))
	vt.uint(2, intern("nanoseconds"))
	prof.bytes(1, vt.b)
	for _, sm := range samples {
		prof.bytes(2, sm.b)
	}
	for i, name := range frames {
		fnName := intern(name)
		var fn protoBuf
		fn.uint(1, uint64(i+1))
		fn.uint(2, fnName)
		fn.uint(3, fnName)
		var line protoBuf
		line.uint(1, uint64(i+1))
		var loc protoBuf
		loc.uint(1, uint64(i+1))
		loc.bytes(4, line.b)
		prof.bytes(4, loc.b)
		prof.bytes(5, fn.b)
	}
	for _, s := range table {
		prof.str(6, s)
	}
	prof.uint(10, uint64(total)) // duration_nanos: total attributed time
	var pt protoBuf
	pt.uint(1, intern("virtual"))
	pt.uint(2, intern("nanoseconds"))
	prof.bytes(11, pt.b)
	prof.uint(12, 1)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	return gz.Close()
}
