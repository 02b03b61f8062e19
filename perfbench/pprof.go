package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the pprof profile.proto format that
// runtime/pprof writes: enough to turn each CPU sample into its stack of
// function names, leaf first, plus the sample's CPU nanoseconds. It
// keeps the benchmark on the standard library.

// profSample is one decoded CPU sample.
type profSample struct {
	stack []string // function names, innermost first (inlined frames expanded)
	count int64    // samples/count
	cpuNS int64    // cpu/nanoseconds
}

// parseProfile decodes a gzipped profile.proto CPU profile, the form
// runtime/pprof writes.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample [][]byte
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		i, ok := funcName[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(rawSample))
	for _, raw := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(raw, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case 1:
				return appendVarints(&locs, wire, v, b)
			case 2:
				var u []uint64
				if err := appendVarints(&u, wire, v, b); err != nil {
					return err
				}
				for _, x := range u {
					vals = append(vals, int64(x))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s := profSample{}
		if len(vals) > 0 {
			s.count = vals[0]
		}
		if len(vals) > 1 {
			s.cpuNS = vals[1]
		}
		for _, id := range locs {
			for _, fn := range locFuncs[id] {
				s.stack = append(s.stack, name(fn))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
