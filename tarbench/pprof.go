package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// buckets are the modules whose self time a traced run reports, plus
// "runtime" (samples with no repository frame) and "other" (repository
// modules not listed here). Every sample lands in exactly one bucket.
var buckets = []string{
	"core", "pipe", "creorder", "l2", "vbox", "zbox",
	"sched", "sim", "metrics",
	"vasm", "arch", "isa", "mem",
	"workloads", "tables", "snapshot",
	"serve", "confhash", "store",
	"runtime", "other",
}

// repoPrefix marks the repository's module frames in a profile.
const repoPrefix = "repro/internal/"

// profile is what attribution needs from a pprof CPU profile: each
// sample's stack as function names, innermost first with inlined frames
// expanded, and its CPU time. totalNs is the profile's CPU time counted a
// second way, as Σ samples/count × period, so attribution can check the
// cpu/nanoseconds values it spreads over the buckets against it.
type profile struct {
	samples []profSample
	totalNs int64
}

type profSample struct {
	stack []string
	ns    int64
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProfile(raw)
}

var errProto = errors.New("malformed profile protobuf")

// parseProfile decodes a pprof profile, gzipped or not, with the standard
// library alone. It reads only the fields that name each sample's stack,
// its samples/count and cpu/nanoseconds values, and the sampling period.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		types     [][2]uint64 // sample_type: (type, unit) string indices
		period    int64       // ns of CPU time one sample stands for
		samples   [][]byte
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]uint64{}   // function id → name string index
	)
	err := pbFields(raw, func(num, _ int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n, _ int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return pbFields(line, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	count, cpu := -1, -1
	for i, t := range types {
		switch {
		case str(t[0]) == "samples" && str(t[1]) == "count":
			count = i
		case str(t[0]) == "cpu" && str(t[1]) == "nanoseconds":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 || period <= 0 {
		return nil, errors.New("profile lacks a samples/count or cpu/nanoseconds sample type or a period")
	}
	p := &profile{}
	for _, sb := range samples {
		var locs, vals []uint64
		err := pbFields(sb, func(n, wire int, v uint64, b []byte) error {
			var err error
			switch n {
			case 1:
				locs, err = pbVarints(locs, wire, v, b)
			case 2:
				vals, err = pbVarints(vals, wire, v, b)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(vals) != len(types) {
			return nil, fmt.Errorf("sample has %d values for %d sample types", len(vals), len(types))
		}
		s := profSample{ns: int64(vals[cpu])}
		for _, l := range locs {
			fns, ok := locations[l]
			if !ok {
				return nil, fmt.Errorf("sample references unknown location %d", l)
			}
			for _, f := range fns {
				s.stack = append(s.stack, str(functions[f]))
			}
		}
		p.samples = append(p.samples, s)
		p.totalNs += int64(vals[count]) * period
	}
	return p, nil
}

// pbFields calls fn for each field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func pbFields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		wire := int(key & 7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends the values of a repeated varint field, which encoders
// write packed (one length-delimited run) or one value per field.
func pbVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// attribute charges each sample's CPU time to the innermost repository
// module on its stack, so runtime and standard-library work goes to the
// module that called it and samples with no repository frame go to
// "runtime". It returns seconds per bucket and fails unless the buckets
// sum to the profile's total of samples × period: a misread value, sample
// type or period shows as a mismatch.
func attribute(p *profile) (map[string]float64, error) {
	listed := make(map[string]bool, len(buckets))
	for _, b := range buckets {
		listed[b] = true
	}
	ns := make(map[string]int64, len(buckets))
	for _, s := range p.samples {
		ns[bucketOf(s.stack, listed)] += s.ns
	}
	var sum int64
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		sum += ns[b]
		out[b] = float64(ns[b]) / 1e9
	}
	if sum != p.totalNs {
		return nil, fmt.Errorf("module buckets sum to %d ns, samples × period to %d ns", sum, p.totalNs)
	}
	return out, nil
}

func bucketOf(stack []string, listed map[string]bool) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if listed[rest] {
			return rest
		}
		return "other"
	}
	return "runtime"
}
