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

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// The benchmark reads only what a flat per-package breakdown needs: each
// sample's leaf location, that location's innermost (inlined) function, and
// the function's name. Field numbers follow profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// modulePrefix is the import-path prefix of the program's own packages.
const modulePrefix = "hybridndp/internal/"

// cpuPackages are the packages the per-layer table names, in output order.
// Samples in a program package outside this list count as "other", as do
// the standard library and the benchmark itself; "runtime" is the Go
// runtime, garbage collector included.
var cpuPackages = []string{
	"coop", "cost", "device", "exec", "expr", "fault", "flash", "fleet",
	"hw", "job", "kv", "lsm", "obs", "optimizer", "query", "sched", "serve",
	"sql", "table", "vclock", "runtime", "other",
}

// cpuSelfShares groups the profile's flat samples by package and returns
// each listed package's share of all samples (0 for packages never seen).
func cpuSelfShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]int64{}  // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample
	err = walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profStringTable:
			strs = append(strs, string(b))
		case profFunction:
			var id uint64
			var name int64
			if err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case profLocation:
			var id, fn uint64
			seenLine := false
			if err := walk(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					if seenLine {
						return nil
					}
					seenLine = true
					return walk(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == lineFunctionID {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case profSample:
			var locs []uint64
			var vals []int64
			if err := walk(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case sampleLocationID:
					return repeated(w, v, pb, func(x uint64) { locs = append(locs, x) })
				case sampleValue:
					return repeated(w, v, pb, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[0]})
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[leafFunc[s.loc]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		shares[packageOf(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= float64(total)
		}
	}
	return shares, nil
}

// packageOf maps a fully qualified function name to its cpuPackages bucket.
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "other"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, p := range cpuPackages {
		if p == pkg {
			return pkg
		}
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for every field of one protobuf message: v carries varint
// and fixed values, b the payload of length-delimited fields.
func walk(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either packed or unpacked
// encoding (runtime/pprof packs only lists longer than two).
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
