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

// cpuBuckets are the attribution buckets of the cpu.<bucket>_frac
// metrics: the module's layer packages, then the standard library's
// JSON and HTTP, the garbage collector, and everything else.
var cpuBuckets = [...]string{
	"sim", "netsim", "topology", "lustre", "raid", "disk",
	"chaos", "integrity", "ledger", "serve",
	"json", "http", "gc", "other",
}

const modulePrefix = "spiderfs/internal/"

// bucketOf classifies one stack frame's function, or reports that the
// frame does not decide the bucket and the walk should go on outward.
func bucketOf(fn string) (string, bool) {
	switch {
	case gcFrame(fn):
		return "gc", true
	case strings.HasPrefix(fn, "encoding/json."):
		return "json", true
	case strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "net."):
		return "http", true
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, b := range cpuBuckets {
		if b == rest {
			return b, true
		}
	}
	return "other", true
}

// gcFrame reports whether fn is collector work: background marking,
// mark assists, sweeping and scavenging.
func gcFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject":
		return true
	}
	return false
}

// cpuShares folds a CPU profile (gzipped profile.proto, as
// runtime/pprof writes it) into the share of samples per bucket. Each
// sample goes to the innermost frame that decides a bucket, so time in
// a layer's own code counts for that layer, JSON encoding called from
// the service counts as json, and an allocation's mark assist as gc.
func cpuShares(prof []byte) ([len(cpuBuckets)]float64, error) {
	var shares [len(cpuBuckets)]float64
	p, err := parseProfile(prof)
	if err != nil {
		return shares, err
	}
	index := make(map[string]int, len(cpuBuckets))
	for i, b := range cpuBuckets {
		index[b] = i
	}
	var total int64
	for _, s := range p.samples {
		bucket := "other"
	walk:
		for _, loc := range s.locations {
			for _, fn := range p.frames[loc] {
				if b, ok := bucketOf(fn); ok {
					bucket = b
					break walk
				}
			}
		}
		shares[index[bucket]] += float64(s.count)
		total += s.count
	}
	for i := range shares {
		shares[i] = ratio(shares[i], float64(total))
	}
	return shares, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples []sample
	// frames maps a location ID to its function names, innermost
	// (inlined) first.
	frames map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64
}

// parseProfile decodes the fields of profile.proto that attribution
// reads: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{frames: map[uint64][]string{}}
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendInts(s.locations, v, b)
				case 2:
					if vals := appendInts(nil, v, b); len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		for _, loc := range s.locations {
			if _, done := p.frames[loc]; done {
				continue
			}
			var names []string
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					names = append(names, strs[i])
				}
			}
			p.frames[loc] = names
		}
	}
	return p, nil
}

// fields walks the protobuf message in b, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped; profile.proto uses none that
// attribution needs.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, key&7)
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile")

// appendInts appends a repeated integer field that arrived either as one
// varint (v) or packed (b).
func appendInts(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
