package main

// Folding a runtime/pprof CPU profile into per-layer self time. The
// profile is gzipped protobuf (github.com/google/pprof/proto/profile.proto);
// the module stays stdlib-only, so this file decodes the handful of
// fields the fold needs with a minimal wire-format reader.

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer names for time outside the simulator's own packages.
const (
	layerMath    = "math"
	layerGC      = "runtime.gc"
	layerRuntime = "runtime.other"
	layerOther   = "other"
)

// gcFrames are the runtime entry points of garbage collection and heap
// allocation. A sample whose leaf is in the runtime goes to runtime.gc
// when any frame on its stack starts with one of these.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject",
	"runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mspan)", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
}

// stripTypeArgs removes every bracketed type-argument list, so that a
// generic instantiation such as
// linemap.(*Map[go.shape.struct{ ... piranha/internal/l2.sharers ... }]).Ref
// keeps only the package path of the function itself.
func stripTypeArgs(fn string) string {
	if !strings.ContainsRune(fn, '[') {
		return fn
	}
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcPackage returns the import path of the package that defines fn.
func funcPackage(fn string) string {
	fn = stripTypeArgs(fn)
	for _, p := range []string{"type:.eq.", "type:.hash.", "type..eq.", "type..hash."} {
		fn = strings.TrimPrefix(fn, p)
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRuntime reports whether pkg is the Go runtime or one of its
// internal helper packages.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf folds a stack (leaf first) to the layer charged with its self
// time: the module under piranha/internal that defines the leaf
// function, "math" for the math packages, runtime.gc or runtime.other for
// the runtime, the root package's name for piranha itself, and "other"
// for the rest of the standard library and the benchmark.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return layerOther
	}
	pkg := funcPackage(stack[0])
	switch {
	case strings.HasPrefix(pkg, "piranha/internal/"):
		rest := strings.TrimPrefix(pkg, "piranha/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "piranha":
		return "piranha"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return layerMath
	case isRuntime(pkg):
		for _, fn := range stack {
			for _, p := range gcFrames {
				if strings.HasPrefix(fn, p) {
					return layerGC
				}
			}
		}
		return layerRuntime
	}
	return layerOther
}

// foldProfile reads a gzipped CPU profile and returns the sampled CPU
// nanoseconds charged to each layer, and their total.
func foldProfile(r io.Reader) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// The CPU profile's second sample value is CPU nanoseconds.
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile: no cpu sample type")
	}
	layers := make(map[string]int64)
	var total int64
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile: sample without cpu value")
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		v := s.values[vi]
		layers[layerOf(stack)] += v
		total += v
	}
	return layers, total, nil
}

// profile holds the decoded fields the fold uses.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string-table index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walk(b, func(f int, wire int, v uint64, sub []byte) error {
		switch {
		case f == fProfileSampleType && wire == wireBytes:
			return walk(sub, func(f, wire int, v uint64, _ []byte) error {
				if f == fValueTypeType && wire == wireVarint {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case f == fProfileSample && wire == wireBytes:
			var s sample
			err := walk(sub, func(f, wire int, v uint64, sub []byte) error {
				switch f {
				case fSampleLocation:
					return repeatedVarint(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeatedVarint(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case f == fProfileLocation && wire == wireBytes:
			var id uint64
			var fns []uint64
			err := walk(sub, func(f, wire int, v uint64, sub []byte) error {
				switch {
				case f == fLocationID && wire == wireVarint:
					id = v
				case f == fLocationLine && wire == wireBytes:
					return walk(sub, func(f, wire int, v uint64, _ []byte) error {
						if f == fLineFunction && wire == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case f == fProfileFunction && wire == wireBytes:
			var id uint64
			var name int64
			err := walk(sub, func(f, wire int, v uint64, _ []byte) error {
				switch {
				case f == fFunctionID && wire == wireVarint:
					id = v
				case f == fFunctionName && wire == wireVarint:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case f == fProfileString && wire == wireBytes:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// walk calls fn for each field of one message: v holds a varint's value,
// sub a length-delimited field's bytes.
func walk(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			if v, n, err = varint(b); err != nil {
				return err
			}
		case wireFixed64:
			n = 8
		case wireFixed32:
			n = 4
		case wireBytes:
			l, m, err := varint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-m) < l {
				return errTruncated
			}
			sub, n = b[m:m+int(l)], m+int(l)
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if n > len(b) {
			return errTruncated
		}
		b = b[n:]
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint decodes a repeated integer field in either its packed
// or its one-value-per-key encoding.
func repeatedVarint(wire int, v uint64, sub []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("unexpected wire type %d for repeated integer", wire)
	}
	for len(sub) > 0 {
		x, n, err := varint(sub)
		if err != nil {
			return err
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}
