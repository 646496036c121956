package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// flatByFunction decodes a gzipped pprof CPU profile (profile.proto) and
// returns the flat sample value of each function: every sample is charged
// to the innermost function of its leaf location. Samples with the
// function named exclude anywhere on their stack are left out. Only the
// fields this needs are decoded; the rest are skipped.
func flatByFunction(gz []byte, exclude string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64 // leaf first
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value is CPU time; the first is the sample count.
				samples = append(samples, sample{locs, vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(loc uint64) string {
		if i, ok := funcName[locFunc[loc]]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	flat := map[string]int64{}
next:
	for _, s := range samples {
		for _, loc := range s.locs {
			if name(loc) == exclude {
				continue next
			}
		}
		flat[name(s.locs[0])] += s.value
	}
	return flat, nil
}

// appendVarints appends a repeated varint field: v for one unpacked
// element, or every varint in b when the field is packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbFields walks a protobuf message, calling fn with each field number and
// either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
