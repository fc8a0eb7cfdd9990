package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Profiling rates of a traced run: one mutex contention event in
// mutexFraction is recorded (pprof scales the delay back up), and the heap
// profile samples one allocation per memProfileRate bytes.
const (
	mutexFraction  = 5
	memProfileRate = 64 << 10
)

// Layers whose flat CPU share and allocation volume a traced run reports.
var (
	cpuLayers   = []string{"gpusim", "sched", "policy", "place", "workload", "fleet", "fmt", "sort", "gc", "malloc", "serve", "rpc", "syscall", "obs", "runtime_sched", "stack"}
	allocLayers = []string{"gpusim", "sched", "policy", "workload", "fmt"}
)

// profiler takes the CPU, heap (alloc_space) and mutex profiles of the
// profiled segment of a traced run. The CPU profile can pause while the
// benchmark checks a unit's outputs, so its own work stays out of the
// layer shares; each stretch between pauses is one CPU profile.
type profiler struct {
	cpu    []*bytes.Buffer
	heap0  *profile
	mutex0 *profile
	armed  bool // between start and stop
	on     bool // a CPU profile is running
}

// newProfiler turns on mutex and finer heap sampling for the whole
// process; call it before the workload allocates.
func newProfiler() *profiler {
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.MemProfileRate = memProfileRate
	return &profiler{}
}

func (p *profiler) close() {
	p.pause()
	runtime.SetMutexProfileFraction(0)
}

// snapshot reads a cumulative runtime profile ("heap", "mutex").
func snapshot(name string) (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("%s profile: %w", name, err)
	}
	return parseProfile(buf.Bytes())
}

// start begins the profiled segment. A nil profiler (untraced run) does
// nothing.
func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	runtime.GC()
	var err error
	if p.heap0, err = snapshot("heap"); err != nil {
		return err
	}
	if p.mutex0, err = snapshot("mutex"); err != nil {
		return err
	}
	p.armed = true
	return p.resume()
}

// profiling reports whether the profiled segment is running. Timings
// taken while it is are not reported.
func (p *profiler) profiling() bool { return p != nil && p.armed }

// pause stops the running CPU profile, if any.
func (p *profiler) pause() {
	if p != nil && p.on {
		pprof.StopCPUProfile()
		p.on = false
	}
}

// resume starts a new CPU profile stretch inside the profiled segment.
func (p *profiler) resume() error {
	if p == nil || !p.armed || p.on {
		return nil
	}
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.cpu = append(p.cpu, buf)
	p.on = true
	return nil
}

// stop ends the profiled segment, which served reqs requests, and records
// the per-layer profile metrics plus the pprof-top summaries.
func (p *profiler) stop(e *env, reqs int) error {
	if p == nil || !p.armed {
		return nil
	}
	p.pause()
	p.armed = false
	runtime.GC()
	heap1, err := snapshot("heap")
	if err != nil {
		return err
	}
	mutex1, err := snapshot("mutex")
	if err != nil {
		return err
	}
	cpu := &profile{}
	for i, buf := range p.cpu {
		part, err := parseProfile(buf.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		cpu.SampleTypes = part.SampleTypes
		cpu.Samples = append(cpu.Samples, part.Samples...)
		name := filepath.Join(e.outDir, fmt.Sprintf("cpu-%d.pb.gz", i+1))
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	heap := heap1.sub(p.heap0)
	mutex := mutex1.sub(p.mutex0)
	n := float64(max(reqs, 1))

	ci := cpu.valueIndex("cpu")
	if total := float64(cpu.total(ci)); total > 0 {
		by := cpu.bucket(ci, cpuLayer)
		for _, l := range cpuLayers {
			e.set("cpu."+l+"_pct", 100*float64(by[l])/total)
		}
	}
	ai := heap.valueIndex("alloc_space")
	ab := heap.bucket(ai, allocLayer)
	for _, l := range allocLayers {
		e.set("alloc."+l+"_mb", float64(ab[l])/1e6/(n/1e6))
	}
	e.set("alloc.serve_kb_per_req", float64(ab["serve"])/1e3/n)
	e.set("alloc.rpc_kb_per_req", float64(ab["rpc"])/1e3/n)
	di := mutex.valueIndex("delay")
	mb := mutex.bucket(di, mutexLayer)
	e.set("serve.mutex_us_per_req", float64(mb["serve"])/1e3/n)
	e.set("rpc.mutex_us_per_req", float64(mb["rpc"])/1e3/n)

	tops := []struct {
		file, title string
		p           *profile
		vi          int
		scale       float64
		unit        string
	}{
		{"cpu.top.txt", "cpu", cpu, ci, 1e-6, "ms"},
		{"alloc.top.txt", "alloc_space", heap, ai, 1e-6, "MB"},
		{"mutex.top.txt", "mutex delay", mutex, di, 1e-6, "ms"},
	}
	for _, t := range tops {
		text := t.p.top(t.vi, 15, t.scale, t.unit)
		if err := os.WriteFile(filepath.Join(e.outDir, t.file), []byte(text), 0o644); err != nil {
			return fmt.Errorf("top summary: %w", err)
		}
		e.note("--- %s %s top (profiled segment, %d requests) ---\n%s", e.workload, t.title, reqs, strings.TrimRight(text, "\n"))
	}
	return nil
}
