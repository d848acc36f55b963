// Package exp is the experiment harness: one driver per table and figure
// of the paper's evaluation (see DESIGN.md §4 for the index). Drivers
// produce structured Reports (tables of rows) that render as text
// mirroring the original artifact, and serialize to JSON/CSV. A Context
// dispatches per-workload preparation and simulation runs to a bounded
// worker pool with concurrency-safe memoization, so experiments sharing
// a prepared workload or a standard configuration never repeat work; Run
// executes a set of experiments concurrently with deterministic output.
package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/memo"
	"r3dla/internal/workloads"
)

// Seeds for the training and evaluation inputs (the paper profiles on
// training inputs and evaluates on reference inputs).
const (
	TrainSeed = 1
	EvalSeed  = 2
)

// Event is one progress notification from the engine: a workload was
// prepared, a simulation finished, or an experiment completed.
type Event struct {
	Stage    string // "prep", "run", or "exp"
	Exp      string // experiment id ("exp" stage only)
	Workload string // workload name ("prep"/"run" stages)
	Key      string // canonical configuration key, core.Options.Key ("run" stage only)
	Elapsed  time.Duration
}

// Context carries budgets, memoizes per-workload preparation (profiling +
// skeleton generation) and standard-configuration runs across
// experiments, and owns the bounded worker pool every simulation is
// dispatched to. A Context is safe for concurrent use: memoization goes
// through internal/memo (two experiments asking for the same prepared
// workload wait on one preparation instead of repeating it), and all
// results are deterministic regardless of scheduling order.
type Context struct {
	Budget      uint64 // evaluation budget (committed MT instructions)
	TrainBudget uint64
	Verbose     bool

	// Jobs bounds how many simulations run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). Set before first use.
	Jobs int

	// Progress, when non-nil, receives an Event after every completed
	// preparation and memoized run, including those of calls that waited
	// on another caller's. It may be called from multiple goroutines and
	// must be safe for that.
	Progress func(Event)

	// LogW receives Verbose per-workload detail lines (default
	// os.Stdout). Writes are serialized by the Context.
	LogW io.Writer

	ctx context.Context // cancellation (Background from NewContext)

	// watcher names Progress to the memos, which deliver each event once
	// per watcher: it points at the Progress field of the Context that
	// installed the observer, so WithCancel copies share it.
	watcher *func(Event)

	state *sharedState // pool + memoization, shared with WithCancel copies
}

// sharedState is the concurrency machinery a Context and its WithCancel
// copies share: the bounded worker pool and the memoization tables.
type sharedState struct {
	logMu sync.Mutex

	semOnce sync.Once
	sem     chan struct{}

	prepared memo.Memo[*Prepared, Event]
	runs     memo.Memo[*core.Results, Event]

	// pages holds each distinct page of the evaluation images once
	// (Prepared.Image). Each Prepared points at the table, not into
	// this struct, so a Prepared kept past its Context keeps no memo.
	pages *emu.PageTable

	mu        sync.Mutex
	prepCount map[string]int // times preparation actually executed, per workload
	runCount  int            // memoized simulations actually executed (cache misses)
}

// NewContext returns a Context with the given evaluation budget (0 means
// the default 150k instructions).
func NewContext(budget uint64) *Context {
	if budget == 0 {
		budget = 150_000
	}
	c := &Context{
		Budget:      budget,
		TrainBudget: budget / 2,
		ctx:         context.Background(),
		state:       &sharedState{prepCount: make(map[string]int), pages: new(emu.PageTable)},
	}
	c.watcher = &c.Progress
	return c
}

// WithCancel returns a shallow copy of c whose operations abort once ctx
// is canceled. The worker pool and memoization state stay shared with c.
func (c *Context) WithCancel(ctx context.Context) *Context {
	cc := *c
	cc.ctx = ctx
	return &cc
}

// WithProgress returns a shallow copy of c whose operations report events
// to f (replacing any previous observer). The worker pool and memoization
// state stay shared with c, so per-request observers (the service's NDJSON
// streams) still hit the shared caches.
func (c *Context) WithProgress(f func(Event)) *Context {
	cc := *c
	cc.Progress = f
	cc.watcher = &cc.Progress
	return &cc
}

func (c *Context) initSem() {
	n := c.Jobs
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.state.sem = make(chan struct{}, n)
}

// canceled is the sentinel the pool panics with when the Context's
// cancellation fires (or a memoized computation it waited on failed);
// Run recovers it into the experiment's error.
type canceled struct{ err error }

// CancelError unwraps the panic value the engine uses to abort canceled
// work. Callers layered on top of the Context (the lab client) recover
// it back into an ordinary error; any other panic value returns false.
func CancelError(r any) (error, bool) {
	if cp, ok := r.(canceled); ok {
		return cp.err, true
	}
	return nil, false
}

func (c *Context) checkCanceled() {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			panic(canceled{err})
		}
	}
}

// abort panics the cancellation sentinel with err, if any, and then
// checks the Context's own cancellation.
func (c *Context) abort(err error) {
	if err != nil {
		panic(canceled{err})
	}
	c.checkCanceled()
}

// Do runs f on the worker pool: it blocks for a slot (respecting Jobs),
// runs f, and releases the slot. Prep and RunCached acquire a slot
// themselves; Do is for compute-heavy leaf work that is no pipeline
// simulation, and so no core.Options value describes: Fig. 1's limit
// study. f must not call Do, Prep or RunCached — nested acquisition
// would deadlock a one-slot pool.
func (c *Context) Do(f func()) {
	c.checkCanceled()
	c.state.semOnce.Do(c.initSem)
	c.state.sem <- struct{}{}
	defer func() { <-c.state.sem }()
	c.checkCanceled()
	f()
}

// ParallelEach runs f(0..n-1) concurrently and returns when all are
// done. It spawns one goroutine per index; actual compute stays bounded
// because every heavy operation inside f (Prep, RunCached, Do) acquires
// a worker-pool slot. Callers get deterministic results by
// writing to index i of a preallocated slice. A panic in any f
// (including cancellation) is re-raised in the caller.
func (c *Context) ParallelEach(n int, f func(i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	var pmu sync.Mutex
	var pval any
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
				}
			}()
			c.checkCanceled()
			f(i)
		}(i)
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}

// Logf writes one Verbose detail line (serialized across goroutines).
func (c *Context) Logf(format string, args ...any) {
	if !c.Verbose {
		return
	}
	w := c.LogW
	if w == nil {
		w = os.Stdout
	}
	c.state.logMu.Lock()
	fmt.Fprintf(w, format, args...)
	c.state.logMu.Unlock()
}

func (c *Context) emit(ev Event) {
	if c.Progress != nil {
		c.Progress(ev)
	}
}

// RunKey renders the identity of one simulation: workload, the options'
// canonical key (core.Options.Key) and budget. Equal keys mean identical
// simulation semantics, so it is the one key of the run memo, and the
// Lab's result store and the sweep journals persist it.
func RunKey(workload string, opt core.Options, budget uint64) string {
	return fmt.Sprintf("%s|%s@%d", workload, opt.Key(), budget)
}

// RunCached memoizes a run at the Context's budget under its RunKey, so
// experiments asking for the same configuration (BL, DLA, R3-DLA, …)
// share one simulation. Concurrent callers with the same key block on a
// single simulation (singleflight).
func (c *Context) RunCached(p *Prepared, opt core.Options) *core.Results {
	return c.RunShared(p, opt, c.Budget, nil, nil)
}

// RunShared is RunCached at an explicit budget (the service lets each
// request pick its own), for a caller that acts on the simulation it
// shares: joined runs when the call starts waiting on a simulation
// another caller started, and fresh receives the result of a simulation
// this call ran, before any caller waiting on it wakes. Either may be
// nil. The simulation runs under a context that ends only when every
// caller waiting on it has gone.
func (c *Context) RunShared(p *Prepared, opt core.Options, budget uint64, joined func(), fresh func(*core.Results)) *core.Results {
	w := memo.Watcher[Event]{Events: c.watcher, Joined: joined}
	r, err := c.state.runs.Watch(c.ctx, RunKey(p.W.Name, opt, budget), w, func(ctx context.Context, emit func(Event)) (*core.Results, error) {
		start := time.Now()
		res := c.WithCancel(ctx).RunDLAAt(p, opt, budget)
		c.state.mu.Lock()
		c.state.runCount++
		c.state.mu.Unlock()
		emit(Event{Stage: "run", Workload: p.W.Name, Key: opt.Key(), Elapsed: time.Since(start)})
		if fresh != nil {
			fresh(res)
		}
		return res, nil
	})
	c.abort(err)
	return r
}

// Prepared is a workload ready to run: evaluation program + profile and
// skeletons from the training input. All fields are read-only after
// preparation, so one Prepared is safely shared by concurrent runs.
type Prepared struct {
	W     *workloads.Workload
	Prog  *isa.Program
	Setup func(*emu.Memory)
	Prof  *core.Profile
	Set   *core.Set

	pages   *emu.PageTable // where Image interns its pages; nil: its own
	imgOnce sync.Once
	img     *emu.Memory
}

// Image returns the workload's initialized data-memory image, built by
// running Setup exactly once per Prepared and then frozen
// (emu.Memory.Freeze): its pages are immutable, sparse where that halves
// them, and shared with every byte-identical page of the other images
// the Context prepared. Runs fork it copy-on-write (emu.Memory.Fork)
// instead of re-executing Setup, which the heap profile showed
// dominating per-run allocation; core.NewSystemWithMemory makes the
// forks.
func (p *Prepared) Image() *emu.Memory {
	p.imgOnce.Do(func() {
		m := emu.NewMemory()
		if p.Setup != nil {
			p.Setup(m)
		}
		m.Freeze(p.pages)
		p.img = m
	})
	return p.img
}

// Train returns the workload's training input, prepared with the
// workload's own profile and named "<workload>/train", so its runs are
// keyed apart from the evaluation input's. Fig. 13-b learns its static
// LCT on it. Each call builds a new Prepared: the run memo keeps a run's
// Results, and the training image, whose pages go in a table of its own
// rather than the Context's, goes with its Prepared instead of living as
// long as p. The Lab checks workload names against the registry, so no
// request reaches it.
func (p *Prepared) Train() *Prepared {
	w := *p.W
	w.Name += "/train"
	prog, setup := p.W.Build(TrainSeed)
	return &Prepared{W: &w, Prog: prog, Setup: setup, Prof: p.Prof, Set: core.Generate(prog, p.Prof)}
}

// Prep profiles and generates skeletons for one workload. Preparation is
// memoized: under concurrency it executes exactly once per workload, and
// every caller gets the same *Prepared.
func (c *Context) Prep(name string) *Prepared {
	w := memo.Watcher[Event]{Events: c.watcher}
	p, err := c.state.prepared.Watch(c.ctx, name, w, func(ctx context.Context, emit func(Event)) (*Prepared, error) {
		start := time.Now()
		fc := c.WithCancel(ctx)
		var val *Prepared
		fc.Do(func() { val = fc.prep(name) })
		c.state.mu.Lock()
		c.state.prepCount[name]++
		c.state.mu.Unlock()
		emit(Event{Stage: "prep", Workload: name, Elapsed: time.Since(start)})
		return val, nil
	})
	c.abort(err)
	return p
}

func (c *Context) prep(name string) *Prepared {
	w := workloads.ByName(name)
	if w == nil {
		panic(fmt.Sprintf("exp: unknown workload %q", name))
	}
	trainProg, trainSetup := w.Build(TrainSeed)
	evalProg, evalSetup := w.Build(EvalSeed)
	prof := core.Collect(trainProg, trainSetup, c.TrainBudget)
	return &Prepared{W: w, Prog: evalProg, Setup: evalSetup, Prof: prof, Set: core.Generate(evalProg, prof), pages: c.state.pages}
}

// PrepCount reports how many times preparation actually executed for a
// workload (test instrumentation: it must be at most 1 regardless of
// concurrency).
func (c *Context) PrepCount(name string) int {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.prepCount[name]
}

// RunCount reports how many memoized simulations actually executed
// (cache misses through RunCached/RunShared). Resume and cache-sharing
// tests use it to assert journaled or overlapping work is not repeated.
func (c *Context) RunCount() int {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.runCount
}

// RunDLAAt runs one configuration on a prepared workload at budget, on
// the worker pool, outside the run memo. The recycle trial window scales
// with the budget (each version needs to run well past the BOQ
// depth, but six trials must not eat a short run). Runs poll the
// Context's cancellation cooperatively, so a canceled Context aborts
// even mid-simulation.
func (c *Context) RunDLAAt(p *Prepared, opt core.Options, budget uint64) *core.Results {
	if opt.TrialInsts == 0 {
		t := budget / 20
		if t < 1500 {
			t = 1500
		}
		if t > 12000 {
			t = 12000
		}
		opt.TrialInsts = t
	}
	var r *core.Results
	c.Do(func() {
		sys := core.NewSystemWithMemory(p.Prog, p.Image(), p.Set, p.Prof, opt)
		res, err := sys.RunContext(c.ctx, budget)
		if err != nil {
			panic(canceled{err})
		}
		r = res
	})
	return r
}

// SuiteNames lists workload names of a suite (or all for "all").
func SuiteNames(suite string) []string {
	var out []string
	if suite == "all" {
		for _, w := range workloads.All() {
			out = append(out, w.Name)
		}
		return out
	}
	for _, w := range workloads.BySuite(suite) {
		out = append(out, w.Name)
	}
	return out
}
