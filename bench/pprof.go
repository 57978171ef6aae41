package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes: gzip
// around a profile.proto message. Only the fields needed to attribute each
// sample to its leaf function are decoded — Profile.sample/location/
// function/string_table, Sample.location_id/value, Location.id/line,
// Line.function_id, Function.id/name.

var errProto = errors.New("pprof: malformed profile")

// protoField is one decoded field: varint fields carry v, length-delimited
// fields carry b.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField walks the fields of one message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errProto
			}
			f.b, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarint appends the values of a repeated integer field, packed or
// not.
func repeatedVarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// leafSamples decodes a gzipped CPU profile and returns the sample count
// per leaf function name. The leaf of a sample is the first line of its
// first location: with inlining a location carries several lines, innermost
// first, so this is the function whose instructions were executing.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var locs, vals []uint64
			err := eachField(f.b, func(sf protoField) (err error) {
				switch sf.num {
				case 1:
					locs, err = repeatedVarint(locs, sf)
				case 2:
					vals, err = repeatedVarint(vals, sf)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], count: int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(f.b, func(lf protoField) error {
				switch {
				case lf.num == 1:
					id = lf.v
				case lf.num == 4 && !seenLine:
					seenLine = true
					return eachField(lf.b, func(ln protoField) error {
						if ln.num == 1 {
							fn = ln.v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(f.b, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.loc]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// funcPackage maps a symbol like "hdvideobench/internal/h264.(*Encoder).mb"
// to the last element of its import path ("h264").
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold their own slashes and dots
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// cpuShares folds leaf samples into the share of each named layer; packages
// outside layers land in "other". The shares sum to 1 (all zero for an
// empty profile).
func cpuShares(leaf map[string]int64, layers []string) map[string]float64 {
	known := map[string]bool{}
	shares := map[string]float64{"other": 0}
	for _, l := range layers {
		known[l] = true
		shares[l] = 0
	}
	var total int64
	for fn, n := range leaf {
		pkg := funcPackage(fn)
		if !known[pkg] {
			pkg = "other"
		}
		shares[pkg] += float64(n)
		total += n
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares
}
