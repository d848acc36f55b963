// Command perfbench is the r3dla benchmark. It runs one of three
// workloads in a single process and prints, as the last line of its
// standard output, one JSON object with the run's end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1):
//
//	reproduce  the paper's evaluation grid, cycle-accurate, through a Lab
//	ladder     fidelity-ladder explorations over a ~10^5-cell space
//	serve      an open-loop schedule against an in-process r3dlad server
//
// Build and run it from the root of a checkout with perfbench/run.sh. It
// reads the committed run goldens under internal/lab/testdata/runs and
// writes only below -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload run needs to know about its invocation.
type env struct {
	seed    int64
	seconds int
	jobs    int    // nproc: the Lab's width, the client count, the connection count
	root    string // checkout root (for the committed goldens)
	out     string // output directory for stores, spans and profiles
}

// report is what one workload run measured. A run repeats set-up and
// timed phase; every operation keeps its fastest repetition, because a
// shared host's speed can drift in phases seconds long and the fastest
// of a few tries, each seconds apart, is what repeats from run to run.
type report struct {
	setupS    []float64     // wall seconds of each set-up
	timed     time.Duration // the fastest repetition's host time, which sim_kips divides by
	opMS      []float64     // latency of each headline operation
	cellMS    []float64     // latency of each fresh cycle-accurate cell
	committed uint64        // MT instructions committed by those cells
	speedup   float64       // simulated geomean IPC of R3 over BL
	digest    string

	// Traced-run data.
	sims       int     // simulations the timed phase executed
	memoHits   int     // cells meant to simulate that came from a memo
	heapGrowth float64 // bytes still live after the timed phase
	gcCPU      float64 // GC CPU seconds during the timed phase
	allCPU     float64 // all CPU seconds during the timed phase
	layer      map[string]metric
}

// checker counts operations and the ones whose output was wrong.
type checker struct {
	mu                sync.Mutex
	attempted, failed int
}

// record counts one operation; a non-nil err marks it failed.
func (c *checker) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		logf("FAILED: %v", err)
	}
}

// workloadFunc runs one workload: reps times a set-up followed by the
// timed phase. A non-nil tracer records spans and fills report.layer.
type workloadFunc func(ctx context.Context, e *env, ck *checker, reps int, tr *tracer) (*report, error)

var benchWorkloads = map[string]workloadFunc{
	"reproduce": runReproduce,
	"ladder":    runLadder,
	"serve":     runServe,
}

// workloadOrder is the order the traced run visits the workloads in.
var workloadOrder = []string{"reproduce", "ladder", "serve"}

// repeats is how many times an untraced run of each workload sets up
// and runs its timed phase; setup_s is the median set-up.
var repeats = map[string]int{"reproduce": 3, "ladder": 3, "serve": 3}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "reproduce, ladder or serve")
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "serve schedule length in seconds")
		trace   = fs.Int("trace", 0, "1: traced run printing per-layer metrics")
		out     = fs.String("out", ".bench_build", "directory for stores, spans and profiles")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wf, ok := benchWorkloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: perfbench --workload reproduce|ladder|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, jobs: runtime.GOMAXPROCS(0), root: root, out: *out}
	ctx := context.Background()
	ck := &checker{}

	// The goldens come first: a checkout that cannot reproduce them byte
	// for byte is not worth timing, and a directory without them is not a
	// checkout at all.
	if err := checkGoldens(ctx, e, ck); err != nil {
		logf("%v", err)
		return 1
	}

	var ms map[string]metric
	if *trace == 0 {
		rep, err := wf(ctx, e, ck, repeats[*name], nil)
		if err != nil {
			logf("%s: %v", *name, err)
			return 1
		}
		fmt.Printf("digest %s seed=%d %s\n", *name, *seed, rep.digest)
		ms = endToEnd(rep, ck)
	} else {
		if ms, err = tracedRun(ctx, e, ck, *name); err != nil {
			logf("%s: %v", *name, err)
			return 1
		}
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: ms}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd turns an untraced report into the end-to-end metrics every
// workload prints.
func endToEnd(rep *report, ck *checker) map[string]metric {
	okRatio := 0.0
	if ck.attempted > 0 {
		okRatio = float64(ck.attempted-ck.failed) / float64(ck.attempted)
	}
	return map[string]metric{
		"setup_s":     {median(rep.setupS), "s"},
		"peak_mem_mb": {peakRSSMB(), "MB"},
		"ok_ratio":    {okRatio, "ratio"},
		"sim_kips":    {float64(rep.committed) / 1e3 / rep.timed.Seconds(), "kinst/s"},
		"r3_speedup":  {rep.speedup, "x"},
		"op_p50_ms":   {hdMedian(rep.opMS), "ms"},
		"cell_p50_ms": {hdMedian(rep.cellMS), "ms"},
	}
}

// tracedRun is the per-layer run. It times the chosen workload once
// untraced, then runs every workload traced in this one process, so each
// layer is measured by the workload that exercises it. The tracing
// overhead is the change in the chosen workload's op_p50_ms.
func tracedRun(ctx context.Context, e *env, ck *checker, name string) (map[string]metric, error) {
	ref, err := benchWorkloads[name](ctx, e, ck, 1, nil)
	if err != nil {
		return nil, err
	}
	refOp := hdMedian(ref.opMS)
	release()

	tr := newTracer()
	layer := map[string]metric{}
	var tracedOp float64
	var memoHits, sims int
	var heapGrowth, gcCPU, allCPU float64
	for _, w := range workloadOrder {
		rep, err := benchWorkloads[w](ctx, e, ck, 1, tr)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w, err)
		}
		for k, v := range rep.layer {
			layer[k] = v
		}
		if w == name {
			tracedOp = hdMedian(rep.opMS)
		}
		memoHits += rep.memoHits
		sims += rep.sims
		heapGrowth += rep.heapGrowth
		gcCPU += rep.gcCPU
		allCPU += rep.allCPU
		release()
	}
	layer["exp.memo_hits"] = metric{float64(memoHits), "count"}
	layer["exp.retained_mb_per_run"] = metric{heapGrowth / float64(max(sims, 1)) / (1 << 20), "MB"}
	layer["runtime.gc_cpu_share"] = metric{gcCPU / allCPU, "ratio"}
	layer["bench.trace_overhead"] = metric{tracedOp/refOp - 1, "ratio"}

	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.tsv", name, e.seed))
	if err := writeSpans(path, tr.snapshot()); err != nil {
		return nil, err
	}
	logf("wrote %s", path)
	return layer, nil
}

// release drops the previous workload's memory before the next one runs,
// so one workload's heap does not tax another's timings.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// phase samples the heap and CPU at the edges of a timed phase.
type phase struct {
	start       time.Time
	traced      bool
	heap        uint64
	gcCPU, cpu0 float64
}

// startPhase collects garbage and starts the clock. Heap and CPU are
// sampled only on traced runs.
func startPhase(traced bool) *phase {
	runtime.GC()
	p := &phase{traced: traced}
	if traced {
		p.heap = heapAlloc()
		p.gcCPU, p.cpu0 = cpuSeconds()
	}
	p.start = time.Now()
	return p
}

// end stops the clock and returns the phase's wall time; on a traced
// run it also fills the report's heap and CPU fields.
func (p *phase) end(rep *report) time.Duration {
	wall := time.Since(p.start)
	if p.traced {
		gc, all := cpuSeconds()
		rep.gcCPU, rep.allCPU = gc-p.gcCPU, all-p.cpu0
		runtime.GC()
		rep.heapGrowth = float64(heapAlloc()) - float64(p.heap)
	}
	return wall
}

// keepFastest folds one repetition's per-operation times into best.
// Every repetition must time the same operations.
func keepFastest(best *[]float64, times []float64) error {
	if *best == nil {
		*best = append([]float64(nil), times...)
		return nil
	}
	if len(times) != len(*best) {
		return fmt.Errorf("a repetition timed %d operations, the first %d", len(times), len(*best))
	}
	for i, t := range times {
		(*best)[i] = min((*best)[i], t)
	}
	return nil
}

// sameOutputs checks that a repetition's digest equals the first one's.
func sameOutputs(rep *report, r int, digest string) error {
	if r == 0 {
		rep.digest = digest
		return nil
	}
	if digest != rep.digest {
		return fmt.Errorf("repetition %d produced outputs %s, the first %s", r, digest, rep.digest)
	}
	return nil
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuSeconds reads the runtime's estimate of the CPU time spent on GC
// and of all the CPU time the process used (user code, GC, scavenging).
func cpuSeconds() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	}
	metrics.Read(s)
	gc = s[0].Value.Float64()
	return gc, gc + s[1].Value.Float64() + s[2].Value.Float64()
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// p50 is the median of the named spans' durations, in ms.
func p50(spans []span, name string) float64 { return median(durations(spans, name)) }
