package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host-time attribution. A CPU profile taken around the traced rep is decoded
// in-process (pprof's profile.proto, gzip-compressed; the repo hand-encodes
// the same format in internal/obs/attrib, so no module dependency is added)
// and every sample is charged to one layer:
//
//	the innermost frame whose function lives in transparentedge/internal/<pkg>
//
// so sorting, map and allocation work is billed to the layer that asked for
// it. Samples with no such frame (GC workers, the scheduler, the harness
// itself) go to layerRuntime.

const (
	internalPrefix = "transparentedge/internal/"
	layerRuntime   = "go-runtime"
)

// layerOf maps a function name as the profile spells it to its layer: the
// first path element under internal/ ("obs/attrib.(*Collector).Observe" is
// obs). It returns "" for functions outside internal/.
func layerOf(function string) string {
	rest, ok := strings.CutPrefix(function, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		return rest[:i]
	}
	return rest
}

// protoReader walks one protobuf message's fields.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped (profile.proto
// has none the attribution needs).
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	for r.err == nil && len(r.b) > 0 {
		key := r.varint()
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			return field, r.varint(), nil, r.err == nil
		case 2:
			n := r.varint()
			if r.err != nil {
				return 0, 0, nil, false
			}
			if n > uint64(len(r.b)) {
				r.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, true
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(r.b) < n {
				r.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			r.b = r.b[n:]
		default:
			r.err = fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return 0, 0, nil, false
}

// repeatedUint appends a repeated integer field's values, packed or not.
func repeatedUint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

// layerShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time (shares sum to 1) and the number of samples
// the profile holds. A profile with no samples returns an empty map.
func layerShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	var (
		samples   []profSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	top := protoReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s profSample
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, r.err = repeatedUint(s.locs, v, d)
				case 2:
					s.values, r.err = repeatedUint(s.values, v, d)
				}
			}
			if r.err != nil {
				return nil, 0, fmt.Errorf("profile: sample: %w", r.err)
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line; an inlined call has several, innermost first
					lr := protoReader{b: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if lr.err != nil {
						r.err = lr.err
					}
				}
			}
			if r.err != nil {
				return nil, 0, fmt.Errorf("profile: location: %w", r.err)
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			r := protoReader{b: data}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if r.err != nil {
				return nil, 0, fmt.Errorf("profile: function: %w", r.err)
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, 0, fmt.Errorf("profile: %w", top.err)
	}

	locLayer := make(map[uint64]string, len(locFuncs))
	for id, fns := range locFuncs {
		for _, fn := range fns {
			if idx := funcNames[fn]; idx < uint64(len(strs)) {
				if l := layerOf(strs[idx]); l != "" {
					locLayer[id] = l
					break
				}
			}
		}
	}

	weights := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// A CPU profile's last value is cpu/nanoseconds; the first is the
		// sample count. They are proportional; take the time.
		w := float64(s.values[len(s.values)-1])
		layer := layerRuntime
		for _, loc := range s.locs {
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		weights[layer] += w
		total += w
	}
	if total == 0 {
		return map[string]float64{}, len(samples), nil
	}
	for l := range weights {
		weights[l] /= total
	}
	return weights, len(samples), nil
}
