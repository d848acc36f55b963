package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/energy"
	"r3dla/internal/exp"
	"r3dla/internal/isa"
	"r3dla/internal/pipeline"
	"r3dla/internal/workloads"
)

// Sentinel errors for name lookups; the service maps them to 404.
var (
	ErrUnknownWorkload   = errors.New("lab: unknown workload")
	ErrUnknownExperiment = errors.New("lab: unknown experiment")
)

// Re-exported engine types: lab requests resolve to these.
type (
	// Event is one progress notification (prep / run / exp stage).
	Event = exp.Event
	// Report is the structured result of one experiment.
	Report = exp.Report
	// ExperimentResult is one experiment's outcome (report or error).
	ExperimentResult = exp.Result
	// Prepared is a workload ready to run: program + profile + skeletons.
	Prepared = exp.Prepared
)

// Lab is the simulation client: it owns budgets and a bounded worker
// pool, and memoizes per-workload preparation and configuration runs
// across every request it serves (internal/memo — concurrent requests for
// the same work wait on one computation). A Lab is safe for concurrent
// use; the r3dlad service serves all requests from one shared Lab, and
// coalesces identical /v1/runs through its memo.
type Lab struct {
	c *exp.Context

	// trainSet records an explicit WithTrainBudget, so a later
	// WithBudget doesn't silently overwrite it (options are
	// order-independent).
	trainSet bool
}

// ClientOption configures a Lab at construction.
type ClientOption func(*Lab) error

// WithBudget sets the default evaluation budget in committed MT
// instructions (0 keeps the 150k default). Requests can override it
// per-run.
func WithBudget(n uint64) ClientOption {
	return func(l *Lab) error {
		if n > 0 {
			l.c.Budget = n
			if !l.trainSet {
				l.c.TrainBudget = n / 2
			}
		}
		return nil
	}
}

// WithTrainBudget overrides the training-run budget (default: half the
// evaluation budget).
func WithTrainBudget(n uint64) ClientOption {
	return func(l *Lab) error {
		if n == 0 {
			return fmt.Errorf("%w: training budget 0", ErrInvalid)
		}
		l.c.TrainBudget = n
		l.trainSet = true
		return nil
	}
}

// WithJobs bounds how many simulations run concurrently (the worker-pool
// semaphore every heavy operation acquires); <= 0 means GOMAXPROCS.
func WithJobs(n int) ClientOption {
	return func(l *Lab) error { l.c.Jobs = n; return nil }
}

// WithProgress installs a progress observer. It may be called from
// multiple goroutines and must be safe for that.
func WithProgress(f func(Event)) ClientOption {
	return func(l *Lab) error { l.c.Progress = f; return nil }
}

// WithDetailLog enables verbose per-workload detail lines on w.
func WithDetailLog(w io.Writer) ClientOption {
	return func(l *Lab) error {
		l.c.Verbose = true
		l.c.LogW = w
		return nil
	}
}

// New builds a Lab client.
func New(opts ...ClientOption) (*Lab, error) {
	l := &Lab{c: exp.NewContext(0)}
	for _, o := range opts {
		if err := o(l); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Budget reports the lab's default evaluation budget.
func (l *Lab) Budget() uint64 { return l.c.Budget }

// WithProgress returns a Lab whose operations report progress to f. The
// worker pool and memoization caches stay shared with l, so per-request
// observers (the service's NDJSON streams) still hit the shared caches.
func (l *Lab) WithProgress(f func(Event)) *Lab {
	return &Lab{c: l.c.WithProgress(f)}
}

// PrepCount reports how many times preparation actually executed for a
// workload — at most 1 under any concurrency (singleflight
// instrumentation; the service smoke tests observe it).
func (l *Lab) PrepCount(workload string) int { return l.c.PrepCount(workload) }

// RunCount reports how many memoized simulations actually executed
// across every request this Lab served (cache misses only — runs served
// from the singleflight cache don't count). Sweep resume and
// cache-sharing tests assert against it.
func (l *Lab) RunCount() int { return l.c.RunCount() }

// guarded runs f against a request-scoped engine context, recovering the
// engine's cancellation panic back into an ordinary error.
func (l *Lab) guarded(ctx context.Context, f func(c *exp.Context)) (err error) {
	c := l.c
	if ctx != nil {
		c = c.WithCancel(ctx)
	}
	defer func() {
		if r := recover(); r != nil {
			cerr, ok := exp.CancelError(r)
			if !ok {
				panic(r)
			}
			err = cerr
		}
	}()
	f(c)
	return nil
}

// ------------------------------------------------------------- requests

// RunRequest asks for one simulation: a workload, a configuration, and
// an optional budget override (0 uses the lab default).
type RunRequest struct {
	Workload string     `json:"workload"`
	Config   ConfigSpec `json:"config"`
	Budget   uint64     `json:"budget,omitempty"`
}

// LTStats is the look-ahead thread's slice of a RunResult.
type LTStats struct {
	IPC       float64 `json:"ipc"`
	Committed uint64  `json:"committed"`
	Skipped   uint64  `json:"skipped"` // fetch-deleted (masked) instructions
}

// RunResult is the architectural outcome of one simulation. All fields
// are deterministic functions of (workload, config, budget), so results
// are cacheable and responses are byte-stable.
type RunResult struct {
	Workload string `json:"workload"`
	Config   string `json:"config"` // canonical configuration key
	Budget   uint64 `json:"budget"`

	IPC       float64 `json:"ipc"`
	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`

	Reboots     uint64   `json:"reboots"`
	BOQWrong    uint64   `json:"boq_wrong"`
	T1Issued    uint64   `json:"t1_issued,omitempty"`
	SkeletonUse []uint64 `json:"skeleton_use,omitempty"`

	L1DMPKI     float64 `json:"l1d_mpki"`
	DRAMTraffic uint64  `json:"dram_traffic"`

	// EnergyJ and PowerW are the run's total energy (both cores, shared
	// L3, DRAM — energy.Core/Shared/DRAM under the default calibration)
	// and average power over the MT's wall time. Deterministic like every
	// other field, so energy is a first-class search objective: the dse
	// Pareto searcher trades it against IPC.
	EnergyJ float64 `json:"energy_j"`
	PowerW  float64 `json:"power_w"`

	LT *LTStats `json:"lt,omitempty"`

	Deadlocked bool `json:"deadlocked,omitempty"`
}

func newRunResult(workload string, cfg Config, budget uint64, r *core.Results) *RunResult {
	out := &RunResult{
		Workload:    workload,
		Config:      cfg.Key(),
		Budget:      budget,
		IPC:         r.IPC(),
		Cycles:      r.MT.Cycles,
		Committed:   r.MT.Committed,
		Reboots:     r.Reboots,
		BOQWrong:    r.BOQWrong,
		T1Issued:    r.T1Issued,
		SkeletonUse: r.SkeletonUse,
		L1DMPKI:     r.MTMem.L1D.MPKI(r.MT.Committed),
		DRAMTraffic: r.DRAM.Traffic(),
		Deadlocked:  r.MT.Deadlocked,
	}
	p := energy.DefaultParams()
	cpuJ, dramJ := exp.RunEnergy(r, p)
	out.EnergyJ = cpuJ + dramJ
	if secs := float64(r.MT.Cycles) / (p.ClockGHz * 1e9); secs > 0 {
		out.PowerW = out.EnergyJ / secs
	}
	if r.LT != nil {
		out.LT = &LTStats{IPC: r.LT.IPC(), Committed: r.LT.Committed, Skipped: r.LTSkipped}
	}
	return out
}

// Prepare profiles and generates skeletons for a named workload
// (memoized, singleflight). The returned Prepared is immutable and
// shared by all runs on it.
func (l *Lab) Prepare(ctx context.Context, workload string) (*Prepared, error) {
	if workloads.ByName(workload) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, workload)
	}
	var p *Prepared
	err := l.guarded(ctx, func(c *exp.Context) { p = c.Prep(workload) })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes one simulation request: the workload is prepared (or
// found in cache), the configuration resolved and validated, and the run
// memoized under its canonical key so identical requests are served from
// cache. ctx cancels cooperatively, even mid-simulation.
func (l *Lab) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	cfg, err := req.Config.Config()
	if err != nil {
		return nil, err
	}
	return l.RunConfig(ctx, req.Workload, cfg, req.Budget)
}

// RunConfig is Run with an already-built Config.
func (l *Lab) RunConfig(ctx context.Context, workload string, cfg Config, budget uint64) (*RunResult, error) {
	p, err := l.Prepare(ctx, workload)
	if err != nil {
		return nil, err
	}
	return l.RunPrepared(ctx, p, cfg, budget)
}

// RunPrepared runs a configuration on already-prepared material (named
// workloads from Prepare, or custom programs from PrepareProgram).
func (l *Lab) RunPrepared(ctx context.Context, p *Prepared, cfg Config, budget uint64) (*RunResult, error) {
	return l.runPrepared(ctx, p, cfg, budget, nil, nil)
}

// runPrepared is RunPrepared with the run memo's hooks (see
// exp.Context.RunShared): joined runs when the call starts waiting on a
// simulation another caller started, and keep receives the result of a
// simulation this call ran, before any caller waiting on it wakes.
func (l *Lab) runPrepared(ctx context.Context, p *Prepared, cfg Config, budget uint64, joined func(), keep func(*RunResult)) (*RunResult, error) {
	if cfg.preset == "" {
		return nil, fmt.Errorf("%w: zero Config (use lab.NewConfig)", ErrInvalid)
	}
	if budget == 0 {
		budget = l.c.Budget
	}
	var fresh func(*core.Results)
	if keep != nil {
		fresh = func(r *core.Results) { keep(newRunResult(p.W.Name, cfg, budget, r)) }
	}
	var res *core.Results
	err := l.guarded(ctx, func(c *exp.Context) {
		res = c.RunShared(p, cfg.SystemOptions(), budget, joined, fresh)
	})
	if err != nil {
		return nil, err
	}
	return newRunResult(p.W.Name, cfg, budget, res), nil
}

// FrontendProfile measures the Appendix B demand and I-cache supply
// distributions of a workload at the given budget (0 uses the lab
// default): demand under a perfect frontend, supply under an infinite
// backend. The tier package's calibrator runs this once per workload at
// a short calibration budget to parameterize its analytic estimator.
// Both are keyed runs through the run memo, shared with Fig. 5 and Fig.
// 14 at equal budgets, and canceling ctx stops them mid-run.
func (l *Lab) FrontendProfile(ctx context.Context, workload string, budget uint64) (demand, supply []float64, err error) {
	p, err := l.Prepare(ctx, workload)
	if err != nil {
		return nil, nil, err
	}
	if budget == 0 {
		budget = l.c.Budget
	}
	err = l.guarded(ctx, func(c *exp.Context) {
		demand, supply = exp.MeasureSupplyDemand(c, p, budget)
	})
	if err != nil {
		return nil, nil, err
	}
	return demand, supply, nil
}

// CoreIPC runs a standalone single core with an arbitrary pipeline
// configuration on prepared material (the SMT / wide-vs-half studies)
// and returns its IPC. The run goes through the run memo: with bop set
// it is the same cell as RunPrepared of the baseline preset
// WithCores(cfg).
func (l *Lab) CoreIPC(ctx context.Context, p *Prepared, cfg pipeline.Config, budget uint64, bop bool) (float64, error) {
	if err := validCoreCfg(cfg); err != nil {
		return 0, err
	}
	if budget == 0 {
		budget = l.c.Budget
	}
	var ipc float64
	err := l.guarded(ctx, func(c *exp.Context) {
		ipc = c.RunShared(p, core.Options{Disable: true, WithBOP: bop, CoreCfg: &cfg}, budget, nil, nil).IPC()
	})
	return ipc, err
}

// PrepareProgram profiles a caller-supplied program and generates its
// skeletons (the training pass), yielding material RunPrepared accepts.
// name keys the Lab's run cache, so it must be unique per (program,
// setup, trainBudget) triple.
func PrepareProgram(name string, prog *isa.Program, setup func(*emu.Memory), trainBudget uint64) *Prepared {
	prof := core.Collect(prog, setup, trainBudget)
	set := core.Generate(prog, prof)
	return &Prepared{
		W:     &workloads.Workload{Name: name, Suite: "custom"},
		Prog:  prog,
		Setup: setup,
		Prof:  prof,
		Set:   set,
	}
}

// ---------------------------------------------------------- experiments

// ExperimentRequest asks for one paper artifact by id ("tab1", "fig9a",
// …; see ListExperiments).
type ExperimentRequest struct {
	ID string `json:"id"`
}

// ExperimentInfo describes one regenerable artifact.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ListExperiments lists the regenerable artifacts in registry
// (presentation) order.
func ListExperiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// FormatExperiments renders the experiment listing as help text, one
// `id  title` line per artifact.
func FormatExperiments() string {
	var b strings.Builder
	for _, e := range ListExperiments() {
		fmt.Fprintf(&b, "  %-8s %s\n", e.ID, e.Title)
	}
	return b.String()
}

// ExperimentByID resolves one experiment id.
func ExperimentByID(id string) (ExperimentInfo, bool) {
	e, ok := exp.ByID(id)
	if !ok {
		return ExperimentInfo{}, false
	}
	return ExperimentInfo{ID: e.ID, Title: e.Title}, true
}

// ExperimentIDs lists all experiment ids, sorted.
func ExperimentIDs() []string { return exp.IDs() }

// Experiment regenerates one artifact and returns its report. Runs,
// preparation and standard-configuration results are shared with every
// other request through the Lab's caches.
func (l *Lab) Experiment(ctx context.Context, req ExperimentRequest) (*Report, error) {
	if _, ok := exp.ByID(req.ID); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, req.ID)
	}
	results, err := l.Experiments(ctx, []string{req.ID}, nil)
	if err != nil {
		return nil, err
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	return results[0].Report, nil
}

// Experiments regenerates several artifacts concurrently on the lab's
// worker pool, returning results in id order regardless of scheduling.
// onResult, when non-nil, receives each result as soon as its ordered
// prefix completes.
func (l *Lab) Experiments(ctx context.Context, ids []string, onResult func(ExperimentResult)) ([]ExperimentResult, error) {
	results, err := exp.Run(ctx, l.c, ids, onResult)
	if err != nil && results == nil {
		// exp.Run rejects unknown ids up front.
		return nil, fmt.Errorf("%w: %v", ErrUnknownExperiment, err)
	}
	return results, err
}

// ------------------------------------------------------------ workloads

// WorkloadInfo describes one benchmark of the evaluation suite.
type WorkloadInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

// ListWorkloads lists the evaluation suite in deterministic order.
func ListWorkloads() []WorkloadInfo {
	all := workloads.All()
	out := make([]WorkloadInfo, 0, len(all))
	for _, w := range all {
		out = append(out, WorkloadInfo{Name: w.Name, Suite: w.Suite})
	}
	return out
}
