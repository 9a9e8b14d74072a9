package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// A CPU profile is taken with runtime/pprof and decoded here with a
// minimal reader of the profile.proto wire format, so attribution
// needs nothing beyond the standard library.

// frame is one (possibly inlined) function on a sample's stack.
type frame struct {
	fn, file string
}

// cpuSample is one profile sample: its stack, leaf first, and the CPU
// nanoseconds it stands for.
type cpuSample struct {
	stack []frame
	nanos int64
}

// profiler captures a CPU profile into memory.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and decodes its samples.
func (p *profiler) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

// decodeProfile reads a gzipped profile.proto and returns its samples
// with the CPU-time value (the "cpu" sample type).
func decodeProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     []uint64 // string index of each sample type's name
		samples   []rawSample
		locLines  = map[uint64][]uint64{}  // location id -> function ids, innermost first
		functions = map[uint64][2]uint64{} // function id -> (name, filename) string indexes
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name, file uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			functions[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 && len(samples) > 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		cs := cpuSample{nanos: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := functions[fid]
				cs.stack = append(cs.stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (data holds the varints).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Module names for frames outside the library.
const (
	modRuntime = "runtime" // GC workers, scheduler and other runtime-only stacks
	modBench   = "bench"   // the benchmark's own code (generation, oracle)
	modOther   = "other"   // anything no module received
)

// rootFileModules names the root package's files that front a layer,
// so their frames are charged to that layer; the other root files are
// the "rolap" facade.
var rootFileModules = map[string]string{
	"persist.go": "persist",
	"server.go":  "server",
	"ingest.go":  "ingest",
	"advisor.go": "advisor",
	"query.go":   "queryengine",
	"view.go":    "queryengine",
	"replica.go": "replica",
}

// moduleOf maps a frame to its module: the package under
// repro/internal, the layer a root-package file fronts, modBench for
// the benchmark's main package, and "" for the standard library and
// runtime.
func moduleOf(f frame) string {
	pkg := funcPackage(f.fn)
	switch {
	case pkg == "main":
		return modBench
	case pkg == "repro":
		if m, ok := rootFileModules[path.Base(f.file)]; ok {
			return m
		}
		return "rolap"
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/record.(*Table).Sort".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGC reports whether a frame is garbage-collector work.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime._GC"
}

// attribution is profile CPU charged to modules.
type attribution struct {
	self  map[string]float64 // seconds charged to the innermost module frame
	incl  map[string]float64 // seconds of samples the module appears in
	gc    float64            // seconds of samples in GC work
	total float64
}

// attribute charges each sample's CPU to the innermost library or
// benchmark frame on its stack (standard-library frames count toward
// their nearest such caller). Stacks with no such frame go to
// modRuntime when every frame is runtime code, and to modOther
// otherwise, so no sample is silently dropped.
func attribute(samples []cpuSample) attribution {
	a := attribution{self: map[string]float64{}, incl: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		a.total += sec
		owner := ""
		onlyRuntime := true
		gc := false
		seen := map[string]bool{}
		for _, f := range s.stack {
			m := moduleOf(f)
			if m != "" && owner == "" {
				owner = m
			}
			if m != "" && !seen[m] {
				seen[m] = true
				a.incl[m] += sec
			}
			if funcPackage(f.fn) != "runtime" {
				onlyRuntime = false
			}
			gc = gc || isGC(f.fn)
		}
		if gc {
			a.gc += sec
		}
		if owner == "" {
			owner = modOther
			if onlyRuntime {
				owner = modRuntime
			}
		}
		a.self[owner] += sec
	}
	return a
}
