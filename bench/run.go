package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// small shrinks every workload's inputs for the smoke test. No flag
	// sets it: the benchmark's inputs are not a knob.
	small bool
	// dir holds the service workload's disk stores.
	dir string
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the workload; run calls it setupReps times and keeps
	// the last.
	setup() error
	// pass runs the workload's fixed work once, recording spans under
	// passSpan when tr is non-nil, and keeps what it measured.
	pass(tr *tracer, passSpan int64)
	// check verifies the outputs of the passes run so far.
	check()
	// layers returns per-layer metrics from an untraced and a traced pass.
	layers(untraced, traced int, spans []span) map[string]float64
	// close releases what setup acquired.
	close()
}

func newWorkload(cfg runConfig, t *tally) (workload, error) {
	if cfg.workload == "service" {
		return newService(cfg, t), nil
	}
	if simItems(cfg.workload, false) != nil {
		return &simWorkload{
			name:   cfg.workload,
			seed:   cfg.seed,
			small:  cfg.small,
			kernel: cfg.workload != "paper-figures",
			tally:  t,
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, "|"))
}

// tally counts operations attempted and failed — scenario runs, HTTP
// requests and correctness checks — and keeps the first failure messages.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
}

const keepFailures = 20

func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < keepFailures {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// check counts one correctness check, failing it with the formatted
// message unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op(nil)
		return
	}
	t.op(fmt.Errorf(format, args...))
}

// env records where a result was measured.
type env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record, written by -out and read by compare.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       env                    `json:"env"`
	Passes    int                    `json:"passes"`
	Samples   map[string][]float64   `json:"samples"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	SelfTimes map[string]float64     `json:"selfTimes,omitempty"`
}

// run sets the workload up setupReps times, then either measures untraced
// passes until cfg.seconds have passed (at least one), or — traced — one
// untraced and one traced pass, and checks the outputs. It returns the
// tracer of a traced run so its spans can be written out.
func run(cfg runConfig) (*result, *tracer, error) {
	t := &tally{}
	w, err := newWorkload(cfg, t)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	// cals[i] is timed just before the i-th set-up or pass and cals[i+1]
	// just after it.
	cal := newCalibrator()
	cals := []float64{cal.run()}
	var setups []float64
	for range setupReps {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		cals = append(cals, cal.run())
	}

	res := &result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Env: env{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Samples: map[string][]float64{"setup_s": setups},
	}
	values := map[string]float64{}
	var tr *tracer
	if !cfg.trace {
		var walls, cpus []float64
		start := time.Now()
		for len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds {
			wall, cpu := timed(func() { w.pass(nil, 0) })
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			cals = append(cals, cal.run())
		}
		w.check()
		res.Passes = len(walls)
		res.Samples["wall_s"], res.Samples["cpu_s"], res.Samples["cal_s"] = walls, cpus, cals
		values["setup_s"] = scaled(setups, cals[:setupReps+1])
		values["ref_wall_s"] = scaled(walls, cals[setupReps:])
		res.Metrics = collect(endToEnd, values, t)
	} else {
		before := readRuntime()
		untraced, cpu := timed(func() { w.pass(nil, 0) })
		after := readRuntime()
		rss, err := peakRSSMB()
		t.op(err)
		tr = newTracer()
		traced, _ := timed(func() {
			root := tr.open("bench.pass", cfg.workload, 0)
			w.pass(tr, root)
			tr.close(root)
		})
		w.check()
		res.Passes = 2
		res.Samples["wall_s"] = []float64{untraced, traced}

		spans := tr.snapshot()
		values = w.layers(0, 1, spans)
		values["runtime.cpu_s"] = cpu
		values["runtime.peak_rss_mb"] = rss
		values["runtime.alloc_mb"] = (after.alloc - before.alloc) / (1 << 20)
		if avail := after.cpu - before.cpu; avail > 0 {
			values["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / avail
		}
		values["trace_overhead"] = traced/untraced - 1
		self := selfTimes(spans)
		res.SelfTimes = map[string]float64{}
		for layer, d := range self {
			res.SelfTimes[layer] = d.Seconds()
		}
		values["trace.coverage"] = max(0, 1-self["bench"].Seconds()/traced)
		for _, layer := range traceLayers {
			values["trace.self_s."+layer] = self[layer].Seconds()
		}
		res.Metrics = collect(perLayer, values, t)
	}
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
	res.Correct = t.failed == 0
	return res, tr, nil
}

// collect reports every declared metric, 0 where the workload had no value,
// and fails the run on a value that is not finite or not declared.
func collect(defs []metricDef, values map[string]float64, t *tally) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		_, ok := out[name]
		t.check(ok, "metric %s is not declared", name)
	}
	return out
}

// timed runs fn and returns its wall and CPU seconds.
func timed(fn func()) (wall, cpu float64) {
	cpu0 := cpuSeconds()
	start := time.Now()
	fn()
	return time.Since(start).Seconds(), cpuSeconds() - cpu0
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. RSS,
// not Go heap: the swarm's arenas are mmap'd outside the heap.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("bench: peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("bench: peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample is the cumulative allocation and GC CPU the Go runtime
// reports.
type runtimeSample struct{ alloc, gcCPU, cpu float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{
		alloc: float64(s[0].Value.Uint64()),
		gcCPU: s[1].Value.Float64(),
		cpu:   s[2].Value.Float64(),
	}
}
