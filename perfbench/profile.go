package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is the part of a pprof protobuf profile the benchmark reads:
// each sample's value vector and its call stack as function names, leaf
// first (inlined frames expanded).
type profile struct {
	SampleTypes []string // "type/unit", e.g. "cpu/nanoseconds"
	Samples     []sample
}

type sample struct {
	Values []int64
	Stack  []string
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.SampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i
		}
	}
	return -1
}

// parseProfile decodes a (gzip-compressed) pprof protobuf profile as
// written by runtime/pprof.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	type valueType struct{ typ, unit int64 }
	var (
		types   []valueType
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt valueType
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range types {
		p.SampleTypes = append(p.SampleTypes, str(t.typ)+"/"+str(t.unit))
	}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				stack = append(stack, str(funcs[f]))
			}
		}
		p.Samples = append(p.Samples, sample{Values: s.vals, Stack: stack})
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v; length-delimited fields pass their bytes
// in b; fixed-width fields are skipped.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a pprof function name such as
// "split/internal/gpusim.(*Sim).After" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// packageLayers is the one fixed package -> layer table every profile is
// bucketed through. Packages not listed fall in "other"; cpuLayer splits
// the runtime further.
var packageLayers = map[string]string{
	"split/internal/gpusim":    "gpusim",
	"split/internal/sched":     "sched",
	"split/internal/policy":    "policy",
	"split/internal/place":     "place",
	"split/internal/workload":  "workload",
	"split/internal/fleet":     "fleet",
	"split/internal/serve":     "serve",
	"split/internal/obs":       "obs",
	"split/internal/trace":     "trace",
	"split/internal/core":      "core",
	"split/internal/metrics":   "metrics",
	"split/internal/stats":     "metrics",
	"split/internal/ga":        "ga",
	"split/internal/profiler":  "ga",
	"split/internal/model":     "ga",
	"split/internal/zoo":       "ga",
	"fmt":                      "fmt",
	"strconv":                  "fmt",
	"sort":                     "sort",
	"slices":                   "sort",
	"net/rpc":                  "rpc",
	"encoding/gob":             "rpc",
	"reflect":                  "rpc",
	"syscall":                  "syscall",
	"internal/runtime/syscall": "syscall",
	"runtime/internal/syscall": "syscall",
	"internal/poll":            "syscall",
	"main":                     "bench",
}

// Runtime frames that mark what a runtime sample is doing. GC is checked
// first: an allocation that assists the collector is collector work.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.markroot", "runtime.sweepone", "runtime.GC",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.mapassign",
		"runtime.mapassign_fast64", "runtime.mapassign_faststr",
		"runtime.rawstring", "runtime.concatstrings", "runtime.convT",
		"runtime.convTstring", "runtime.convT64",
	}
	stackFrames = []string{"runtime.morestack", "runtime.newstack", "runtime.copystack"}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep",
		"runtime.notesleep", "runtime.notewakeup", "runtime.futex",
		"runtime.futexsleep", "runtime.futexwakeup", "runtime.netpoll",
		"runtime.semacquire1", "runtime.semrelease1", "runtime.lock2",
		"runtime.unlock2", "runtime.usleep", "runtime.osyield", "runtime.mcall",
		"runtime.stealWork", "runtime.runqgrab", "runtime.startm", "runtime.stopm",
		"runtime.goexit0", "runtime.newproc",
	}
)

// isRuntimePackage reports whether pkg is part of the Go runtime proper.
func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/")
}

// cpuLayer attributes one CPU sample by its leaf frame's package. Runtime
// leaves are split by what the stack shows the runtime doing: gc, malloc,
// stack growth, goroutine scheduling (park, wake-up, futex), or "runtime".
func cpuLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0])
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	if !isRuntimePackage(pkg) {
		return "other"
	}
	for _, set := range []struct {
		layer  string
		frames []string
	}{{"gc", gcFrames}, {"malloc", mallocFrames}, {"stack", stackFrames}, {"runtime_sched", schedFrames}} {
		if hasFrame(stack, set.frames) {
			return set.layer
		}
	}
	return "runtime"
}

func hasFrame(stack, frames []string) bool {
	for _, f := range stack {
		for _, want := range frames {
			if f == want {
				return true
			}
		}
	}
	return false
}

// allocLayer attributes one heap-profile sample to the package that asked
// for the memory: the first frame outside the runtime.
func allocLayer(stack []string) string {
	for _, f := range stack {
		pkg := funcPackage(f)
		if isRuntimePackage(pkg) {
			continue
		}
		if l, ok := packageLayers[pkg]; ok {
			return l
		}
		return "other"
	}
	return "runtime"
}

// mutexLayer attributes one mutex-profile sample: contention inside
// net/rpc (anywhere on the stack) is "rpc", otherwise contention under a
// serve frame is "serve".
func mutexLayer(stack []string) string {
	var serve bool
	for _, f := range stack {
		switch funcPackage(f) {
		case "net/rpc":
			return "rpc"
		case "split/internal/serve":
			serve = true
		}
	}
	if serve {
		return "serve"
	}
	return "other"
}

// bucket sums sample value vi by layer.
func (p *profile) bucket(vi int, layer func([]string) string) map[string]int64 {
	out := map[string]int64{}
	if p == nil || vi < 0 {
		return out
	}
	for _, s := range p.Samples {
		if vi < len(s.Values) {
			out[layer(s.Stack)] += s.Values[vi]
		}
	}
	return out
}

// total sums sample value vi.
func (p *profile) total(vi int) int64 {
	var t int64
	if p == nil || vi < 0 {
		return 0
	}
	for _, s := range p.Samples {
		if vi < len(s.Values) {
			t += s.Values[vi]
		}
	}
	return t
}

// top renders a `pprof -top`-style table of the n functions with the most
// flat value vi: flat, flat%, sum%, cum, cum%. scale converts the raw value
// to the printed unit (e.g. 1e-6 for ns -> ms).
func (p *profile) top(vi, n int, scale float64, unit string) string {
	flat := map[string]int64{}
	cum := map[string]int64{}
	total := p.total(vi)
	for _, s := range p.Samples {
		if vi >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		v := s.Values[vi]
		flat[s.Stack[0]] += v
		seen := map[string]bool{}
		for _, f := range s.Stack {
			if !seen[f] {
				seen[f] = true
				cum[f] += v
			}
		}
	}
	names := make([]string, 0, len(flat))
	for f := range flat {
		names = append(names, f)
	}
	sort.Slice(names, func(i, j int) bool {
		if flat[names[i]] != flat[names[j]] {
			return flat[names[i]] > flat[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Total: %.2f%s\n", float64(total)*scale, unit)
	fmt.Fprintf(&b, "%12s %6s %6s %12s %6s\n", "flat", "flat%", "sum%", "cum", "cum%")
	var sum int64
	for _, f := range names {
		sum += flat[f]
		fmt.Fprintf(&b, "%10.2f%-2s %5.2f%% %5.2f%% %10.2f%-2s %5.2f%%  %s\n",
			float64(flat[f])*scale, unit, pct(flat[f]), pct(sum),
			float64(cum[f])*scale, unit, pct(cum[f]), f)
	}
	return b.String()
}

// sub returns p minus prev, matching samples by identical stacks: the
// activity between two snapshots of a cumulative profile (heap, mutex).
func (p *profile) sub(prev *profile) *profile {
	if prev == nil {
		return p
	}
	key := func(s sample) string { return strings.Join(s.Stack, "\x00") }
	before := map[string][]int64{}
	for _, s := range prev.Samples {
		k := key(s)
		acc := before[k]
		for len(acc) < len(s.Values) {
			acc = append(acc, 0)
		}
		for i, v := range s.Values {
			acc[i] += v
		}
		before[k] = acc
	}
	out := &profile{SampleTypes: p.SampleTypes}
	for _, s := range p.Samples {
		vals := append([]int64(nil), s.Values...)
		if acc, ok := before[key(s)]; ok {
			for i := range vals {
				if i < len(acc) {
					d := vals[i]
					if d > acc[i] {
						d = acc[i]
					}
					vals[i] -= d
					acc[i] -= d
				}
			}
		}
		out.Samples = append(out.Samples, sample{Values: vals, Stack: s.Stack})
	}
	return out
}
