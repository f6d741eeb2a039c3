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

// cpuBuckets are the layers a CPU sample can be charged to, in report
// order. Every sample lands in exactly one, so the shares sum to 100%.
var cpuBuckets = []string{
	"sim", "pdes", "netsim", "dataplane", "protocol", "client", "server",
	"apps", "kv", "rediskv", "pmobj", "pmem", "workload", "stats", "trace",
	"pmnet", "bench",
	"rt.malloc", "rt.gc", "rt.memclr", "rt.memmove", "rt.other", "other",
}

// foldProfile reads a gzipped pprof CPU profile and charges each sample's
// count to one bucket of cpuBuckets (see classify).
func foldProfile(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		out[classify(stack)] += s.count
	}
	return out, nil
}

// classify charges a stack (leaf first) to a bucket. Zeroing and copying
// are charged to the runtime whatever called them; so are garbage
// collection and allocation. Any other frame outside this module (the
// standard library, runtime helpers such as map access) is charged to the
// nearest caller inside it.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	switch leaf := stack[0]; {
	case strings.HasPrefix(leaf, "runtime.memclr"):
		return "rt.memclr"
	case leaf == "runtime.memmove":
		return "rt.memmove"
	}
	for _, f := range stack {
		if isGC(f) {
			return "rt.gc"
		}
	}
	for _, f := range stack {
		if !isRuntime(f) {
			break
		}
		if strings.HasPrefix(f, "runtime.mallocgc") || f == "runtime.newobject" ||
			strings.HasPrefix(f, "runtime.makeslice") || f == "runtime.growslice" {
			return "rt.malloc"
		}
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	if isRuntime(stack[0]) {
		return "rt.other"
	}
	return "other"
}

// isRuntime reports whether a function belongs to the Go runtime, which
// keeps some of its code in internal/runtime/... packages.
func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/")
}

func isGC(f string) bool {
	for _, p := range []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
		"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.wbBufFlush", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// moduleOf names the bucket of a function inside this module, or "" for a
// function outside it. pmnet/internal/<path> maps to the last element of
// path (pmnet/internal/sim/pdes to "pdes"), the root package to "pmnet",
// and the benchmark itself to "bench". An internal package without a
// bucket of its own maps to "other".
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case pkg == "pmnet":
		return "pmnet"
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "pmnet/internal/"):
		m := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, b := range cpuBuckets {
			if b == m {
				return m
			}
		}
		return "other"
	}
	return ""
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the fields of the gzipped profile.proto message
// that the fold reads: samples, locations with their lines, functions and
// the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{} // function id → string index
		locLines = map[uint64][]uint64{}
		samples  []profSample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					values = appendVarints(values, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
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
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			idx, ok := funcName[f]
			if !ok || idx < 0 || int(idx) >= len(strs) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, f)
			}
			names = append(names, strs[idx])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value: v for varints, b for length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
