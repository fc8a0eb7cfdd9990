// Command perfbench is the repository's benchmark: one command that runs a
// workload against the public functions of the layers, checks that the
// outputs are correct, and prints every metric by name and unit. Run it
// from the repository root through its build script:
//
//	bash perfbench/run.sh --workload sim-million --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same workload runs again
// under CPU, heap and mutex profiling plus span recording, and the JSON
// carries the per-layer metrics instead. README.md in this directory says
// why each workload exists and which end-to-end metric each layer metric
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"split/internal/obs"
	"split/internal/stats"
)

// metricDef is one reported metric with its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_req", "allocs"},
	{"peak_heap_mb", "MB"},
	{"e2e_p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"req_per_s", "req/s"},
	{"cpu_us_per_req", "us"},
	{"workload.generate_ms", "ms"},
	{"policy.run_ms", "ms"},
	{"core.probes", "count"},
	{"core.probe_ms", "ms"},
	{"core.knee_rps", "req/s"},
	{"qos.jitter_short_ms", "ms"},
	{"ga.deploy_ms", "ms"},
	{"cpu.gpusim_pct", "%"},
	{"cpu.sched_pct", "%"},
	{"cpu.policy_pct", "%"},
	{"cpu.place_pct", "%"},
	{"cpu.workload_pct", "%"},
	{"cpu.fleet_pct", "%"},
	{"cpu.fmt_pct", "%"},
	{"cpu.sort_pct", "%"},
	{"cpu.gc_pct", "%"},
	{"cpu.malloc_pct", "%"},
	{"cpu.serve_pct", "%"},
	{"cpu.rpc_pct", "%"},
	{"cpu.syscall_pct", "%"},
	{"cpu.obs_pct", "%"},
	{"cpu.runtime_sched_pct", "%"},
	{"cpu.stack_pct", "%"},
	{"alloc.gpusim_mb", "MB/Mreq"},
	{"alloc.sched_mb", "MB/Mreq"},
	{"alloc.policy_mb", "MB/Mreq"},
	{"alloc.workload_mb", "MB/Mreq"},
	{"alloc.fmt_mb", "MB/Mreq"},
	{"alloc.serve_kb_per_req", "kB"},
	{"alloc.rpc_kb_per_req", "kB"},
	{"policy.blocks_per_req", "count"},
	{"sched.preemptions_per_req", "count"},
	{"place.decisions", "count"},
	{"trace.events_per_req", "count"},
	{"gpusim.busy_frac", "frac"},
	{"serve.mutex_us_per_req", "us"},
	{"rpc.mutex_us_per_req", "us"},
	{"serve.wait_virtual_ms_p50", "ms"},
	{"serve.overhead_virtual_ms_p50", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.overhead_p99_ms", "ms"},
	{"serve.preemptions_per_req", "count"},
	{"serve.blocks_per_req", "count"},
	{"serve.device_busy_frac", "frac"},
	{"serve.drops", "count"},
	{"serve.queue_depth_mean", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.sim_viol4_pct", "%"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"fail_pct", "%"},
	{"qos.viol4_pct", "%"},
	{"e2e.p99_ms", "ms"},
	{"e2e.tail_pct", "pct"},
	{"e2e.samples", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"sim-million":  simMillion,
	"sim-capacity": simCapacity,
	"serve-closed": serveClosed,
	"serve-open":   serveOpen,
}

// env is one benchmark run: its arguments, the metrics and checks it has
// produced so far, and (on traced runs) the span recorder and profiles.
type env struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	outDir   string

	spans    *spanRecorder
	prof     *profiler
	metrics  map[string]float64
	problems []string
	notes    []string

	// setupMs are the wall times of the run's set-ups in ms, deployMs
	// those of its core Deploy calls. Each workload sets up
	// setupRepeats times before its timed work and as many times after
	// it.
	setupMs, deployMs []float64

	attempted, failed int
}

// set records a metric value.
func (e *env) set(name string, v float64) { e.metrics[name] = v }

// fail records a correctness problem; any problem makes the run report
// failure instead of numbers.
func (e *env) fail(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// note records a human-readable line printed before the result.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// setSetup records setup_s and ga.deploy_ms as the fastest of the run's
// samples. Set-up takes a few milliseconds, so it is taken best-of for
// the same reason as throughput (see setUnitMetrics), and its samples are
// taken at both ends of the run, so that one slow stretch of the host
// cannot set it. The median of 15 samples at the start moved by up to
// 60% between runs of the same code.
func (e *env) setSetup() {
	if len(e.setupMs) == 0 {
		return
	}
	e.set("setup_s", stats.Min(e.setupMs)/1000)
	e.set("ga.deploy_ms", stats.Min(e.deployMs))
	e.note("set-up: fastest of %d %.3f ms, median %.3f ms; Deploy fastest %.3f ms",
		len(e.setupMs), stats.Min(e.setupMs), median(e.setupMs), stats.Min(e.deployMs))
}

// setLatency records the e2e median and tail, with the percentile the
// tail rule picked and its sample count, and notes how they were taken.
func (e *env) setLatency(p50, tailMs, tailPct float64, samples int, how string) {
	e.set("e2e_p50_ms", p50)
	e.set("e2e.p99_ms", tailMs)
	e.set("e2e.tail_pct", tailPct)
	e.set("e2e.samples", float64(samples))
	e.note("e2e_p50_ms %.4f, e2e.p99_ms = p%g of %d samples %.4f (%s)", p50, tailPct, samples, tailMs, how)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs one workload and prints the result. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: sim-million, sim-capacity, serve-closed or serve-open")
	seed := fset.Int64("seed", 1, "seed every generated input derives from")
	seconds := fset.Int("seconds", 20, "how long the run measures")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outRoot := fset.String("out", ".bench_out", "directory for result files, profiles and spans")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		metrics:  map[string]float64{},
		outDir:   filepath.Join(*outRoot, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag)),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.traced {
		e.spans = newSpanRecorder(maxSpans)
		e.prof = newProfiler()
		defer e.prof.close()
	}
	stamp := newStamp()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		e.workload, e.seed, *seconds, *traceFlag, stamp.NProc, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit)
	if err := drive(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	e.setSetup()
	if e.traced {
		if err := e.spans.writeChrome(filepath.Join(e.outDir, "spans.json")); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		e.note("spans written to %s", filepath.Join(e.outDir, "spans.json"))
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	if !e.traced {
		for _, d := range endToEnd {
			if _, ok := e.metrics[d.Name]; !ok {
				e.fail("workload produced no %s", d.Name)
			}
		}
	}
	if e.attempted < 1 {
		e.fail("workload attempted no requests")
	}
	for _, line := range e.notes {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintln(stdout, "all measured values:", formatMetrics(e.metrics))
	for _, p := range e.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{Correct: len(e.problems) == 0, Attempted: max(e.attempted, 1), Failed: e.failed,
		Metrics: map[string]metricValue{}}
	if res.Correct {
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{Value: e.metrics[d.Name], Unit: d.Unit}
		}
	}
	if err := writeResultFile(filepath.Join(e.outDir, "result.json"), stamp, res, e.problems); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// formatMetrics renders every measured value as sorted name=value pairs,
// including those this run's JSON does not carry.
func formatMetrics(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.6g", n, m[n])
	}
	return b.String()
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// maxSpans caps the spans a traced run keeps in memory.
const maxSpans = 20000

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies the machine and build a result came from.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit is the VCS revision stamped into the binary, or, when it was
// built outside a repository, "src-" plus a digest of the module's Go
// sources as found from the working directory.
func commit() string {
	if v := obs.BuildVersion(); v != "unknown" {
		return v
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// writeResultFile saves the stamped result, with any failed checks, next
// to the run's other outputs.
func writeResultFile(path string, st stamp, res result, problems []string) error {
	data, err := json.MarshalIndent(struct {
		Stamp    stamp    `json:"stamp"`
		Problems []string `json:"problems,omitempty"`
		result
	}{st, problems, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}

// unitStats is what one timed unit of work cost: wall time, process CPU
// time, heap allocations and peak heap.
type unitStats struct {
	WallMs float64
	CPUMs  float64
	Reqs   int
	Key    int // which of the run's inputs the unit worked on
	Allocs uint64
	PeakMB float64
}

// measure runs fn as one timed unit: the heap is collected first, then
// wall time, CPU time, allocation count and peak heap are taken around fn.
func measure(fn func() error) (unitStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler()
	c0 := cpuMs()
	t0 := wallNow()
	err := fn()
	wall := sinceMs(t0)
	cpu := cpuMs() - c0
	peak := hs.stop()
	runtime.ReadMemStats(&m1)
	return unitStats{WallMs: wall, CPUMs: cpu, Allocs: m1.Mallocs - m0.Mallocs, PeakMB: peak}, err
}

// cpuMs is the process's user plus system CPU time in ms, over all its
// threads (the garbage collector's included).
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// heapSampler polls the live-plus-unswept heap size from runtime/metrics
// (no stop-the-world) and keeps the maximum.
type heapSampler struct {
	done chan struct{}
	quit chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is the heap sampler's polling interval.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: heapMetric}}
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			default:
			}
			sleep(heapSampleEvery)
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	s := []rtmetrics.Sample{{Name: heapMetric}}
	rtmetrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / 1e6
}
