package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a two-sample "cpu/nanoseconds" profile. Sample
// one's leaf location holds an inlined frame; sample two's location ids
// are unpacked.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "split/internal/sched.NewRequest", "split/internal/policy.(*splitRun).arrive",
		"split/internal/gpusim.(*Sim).After"}
	var m pb
	m.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	m.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	// Sample 1: location 1 (mallocgc inlined into sched.NewRequest), then
	// location 2 (policy arrive); values packed.
	m.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30_000_000)).b)
	// Sample 2: location 3 (gpusim), unpacked ids and values.
	m.bytes(2, (&pb{}).varint(1, 3).varint(2, 1).varint(2, 10_000_000).b)
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).varint(2, 7).b }
	m.bytes(4, (&pb{}).varint(1, 1).varint(3, 0x1000).bytes(4, line(1)).bytes(4, line(2)).b)
	m.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(3)).b)
	m.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(4)).b)
	for i, name := range []uint64{5, 6, 7, 8} {
		m.bytes(5, (&pb{}).varint(1, uint64(i+1)).varint(2, name).b)
	}
	for _, s := range strs {
		m.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(m.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseProfile(t *testing.T) {
	p, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"samples/count", "cpu/nanoseconds"}; !reflect.DeepEqual(p.SampleTypes, want) {
		t.Fatalf("sample types %v, want %v", p.SampleTypes, want)
	}
	if len(p.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(p.Samples))
	}
	want0 := []string{"runtime.mallocgc", "split/internal/sched.NewRequest", "split/internal/policy.(*splitRun).arrive"}
	if !reflect.DeepEqual(p.Samples[0].Stack, want0) || !reflect.DeepEqual(p.Samples[0].Values, []int64{3, 30_000_000}) {
		t.Errorf("sample 0 = %+v", p.Samples[0])
	}
	ci := p.valueIndex("cpu")
	if ci != 1 || p.total(ci) != 40_000_000 {
		t.Errorf("cpu index %d total %d", ci, p.total(ci))
	}
	by := p.bucket(ci, cpuLayer)
	if by["malloc"] != 30_000_000 || by["gpusim"] != 10_000_000 {
		t.Errorf("cpu buckets %v", by)
	}
	if alloc := p.bucket(ci, allocLayer); alloc["sched"] != 30_000_000 {
		t.Errorf("alloc buckets %v: the allocating package is the first non-runtime frame", alloc)
	}
	top := p.top(ci, 5, 1e-6, "ms")
	if !strings.Contains(top, "Total: 40.00ms") || !strings.Contains(top, "75.00%") ||
		strings.Index(top, "runtime.mallocgc") > strings.Index(top, "gpusim") {
		t.Errorf("top summary:\n%s", top)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestProfileSub(t *testing.T) {
	stackA := []string{"a.f"}
	stackB := []string{"b.g"}
	before := &profile{SampleTypes: []string{"delay/nanoseconds"}, Samples: []sample{
		{Values: []int64{100}, Stack: stackA},
	}}
	after := &profile{SampleTypes: before.SampleTypes, Samples: []sample{
		{Values: []int64{250}, Stack: stackA},
		{Values: []int64{40}, Stack: stackB},
	}}
	d := after.sub(before)
	if d.total(0) != 190 || d.Samples[0].Values[0] != 150 || d.Samples[1].Values[0] != 40 {
		t.Errorf("delta %+v", d.Samples)
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"split/internal/gpusim.(*Sim).After":            "split/internal/gpusim",
		"split/internal/serve.(*Server).executor.func1": "split/internal/serve",
		"runtime.mallocgc":                              "runtime",
		"net/rpc.(*Client).send":                        "net/rpc",
		"internal/runtime/syscall.Syscall6":             "internal/runtime/syscall",
		"main.run":                                      "main",
		"encoding/gob.(*Encoder).Encode":                "encoding/gob",
		"split/internal/sched.insert[...]":              "split/internal/sched",
	}
	for fn, want := range cases {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPULayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"split/internal/gpusim.(*eventHeap).Push", "split/internal/policy.(*splitRun).arrive"}, "gpusim"},
		{[]string{"fmt.(*pp).doPrintf", "fmt.Sprintf", "split/internal/policy.x"}, "fmt"},
		{[]string{"strconv.AppendFloat", "fmt.Sprintf"}, "fmt"},
		{[]string{"sort.insertionSort", "split/internal/policy.sortRecords"}, "sort"},
		{[]string{"encoding/gob.(*Decoder).decodeStruct"}, "rpc"},
		{[]string{"reflect.Value.Field"}, "rpc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "split/internal/sched.NewRequest"}, "malloc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.wakep"}, "runtime_sched"},
		{[]string{"runtime.copystack", "runtime.newstack", "runtime.morestack"}, "stack"},
		{[]string{"runtime.memmove", "split/internal/workload.GenerateCohorts"}, "runtime"},
		{[]string{"math.Log", "split/internal/workload.(*stream).advance"}, "other"},
		{[]string{"main.closedLoop"}, "bench"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := cpuLayer(c.stack); got != c.want {
			t.Errorf("cpuLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAllocAndMutexLayer(t *testing.T) {
	if got := allocLayer([]string{"runtime.growslice", "split/internal/gpusim.(*Sim).After"}); got != "gpusim" {
		t.Errorf("allocLayer skips runtime frames: got %q", got)
	}
	if got := allocLayer([]string{"runtime.malg"}); got != "runtime" {
		t.Errorf("all-runtime stack: got %q", got)
	}
	if got := allocLayer([]string{"bytes.growSlice", "split/internal/serve.x"}); got != "other" {
		t.Errorf("unlisted allocating package: got %q", got)
	}
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"sync.(*Mutex).Unlock", "net/rpc.(*Client).send", "split/internal/serve.(*Client).Infer"}, "rpc"},
		{[]string{"sync.(*Mutex).Unlock", "split/internal/serve.(*Server).enqueue"}, "serve"},
		{[]string{"sync.(*Mutex).Unlock", "main.x"}, "other"},
	}
	for _, c := range cases {
		if got := mutexLayer(c.stack); got != c.want {
			t.Errorf("mutexLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
