package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the units host CPU is attributed to: the simulator's
// packages, then runtimeLayer for samples with a frame in none of them.
var layers = []string{"simt", "simmem", "core", "reclaim", "ds", "workload", "obs", "harness", runtimeLayer}

const runtimeLayer = "runtime"

const layerPrefix = "threadscan/internal/"

// layerOf returns the layer a function name belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// layerShares reads a gzipped pprof CPU profile and returns each
// layer's share of its samples, and the sample count.  A sample belongs
// to the innermost frame, inlined frames included, that lies in a
// simulator package, walking from the leaf up; a sample with none
// belongs to runtimeLayer.  The shares sum to 1; a layer with no
// samples is absent.
func layerShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := runtimeLayer
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.str(p.funcName[fn])); l != "" {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.n
		total += s.n
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = float64(n) / float64(total)
	}
	return shares, total, nil
}

// The subset of profile.proto (github.com/google/pprof) that layer
// attribution reads:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (value[0] = sample count)
//	Location: 1 id, 4 line
//	Line:     1 function_id (innermost inlined frame first)
//	Function: 1 id, 2 name (string_table index)
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]uint64
	strs     []string
}

type profSample struct {
	locs []uint64
	n    int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			var values []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, m)
				case 2:
					values, err = appendVarints(values, v, m)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.n = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls f for every field of the protobuf message b: v holds
// a varint or fixed value, msg the bytes of a length-delimited field.
func eachField(b []byte, f func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := f(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (msg nil), every varint in msg when packed.
func appendVarints(out []uint64, v uint64, msg []byte) ([]uint64, error) {
	if msg == nil {
		return append(out, v), nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, x)
		msg = msg[n:]
	}
	return out, nil
}
